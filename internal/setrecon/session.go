package setrecon

import (
	"time"

	"sosr/internal/hashing"
	"sosr/internal/transport"
)

// Plan is a resolved set session; both halves must hold the same Plan.
type Plan struct {
	// D bounds |A ⊕ B|.
	D int
	// Estimate runs the estimator round of Corollary 3.2 first, for callers
	// without a bound: Alice sizes the IBLT from Bob's probe and D is unused.
	Estimate bool
	// CharPoly selects Theorem 2.3 instead of the Corollary 2.2 IBLT; it
	// needs a positive D and no estimate.
	CharPoly bool
}

// AliceMsg builds Alice's payload for bound d: the Corollary 2.2 IBLT, or
// d+1 characteristic-polynomial evaluations for Theorem 2.3.
func (pl Plan) AliceMsg(coins hashing.Coins, alice []uint64, d int) []byte {
	if pl.CharPoly {
		return EncodeCharPoly(alice, d+1)
	}
	return BuildIBLTMsg(coins, alice, d)
}

// AliceOpts hooks a caller into Alice's half. Every field is optional.
type AliceOpts struct {
	// Msg builds Alice's payload for bound d; nil builds it with
	// Plan.AliceMsg.
	Msg func(d int) []byte
	// Estimated observes the estimator round: when Alice began waiting for
	// Bob's probe, the bound she derived, and the error if she got none.
	Estimated func(start time.Time, d int, err error)
}

// Alice runs Alice's half of a set session and returns the payload of Bob's
// closing transport.LabelDone. An error means she could not go on.
func Alice(peer transport.Peer, coins hashing.Coins, alice []uint64, pl Plan, o AliceOpts) ([]byte, error) {
	label := "iblt"
	if pl.CharPoly {
		label = "charpoly"
	}
	if o.Msg == nil {
		o.Msg = func(d int) []byte { return pl.AliceMsg(coins, alice, d) }
	}
	err := func() error {
		d := pl.D
		if pl.Estimate {
			start := time.Now()
			probe, err := transport.Expect(peer, "estimator")
			if err == nil {
				d, err = DiffBoundFromEstimator(coins, probe, alice)
			}
			if o.Estimated != nil {
				o.Estimated(start, d, err)
			}
			if err != nil {
				return err
			}
		}
		if err := peer.SendFrame(label, o.Msg(d)); err != nil {
			return err
		}
		return transport.AwaitDone(peer)
	}()
	return transport.AliceResult(err)
}

// Bob runs Bob's half of a set session and returns his copy of Alice's set;
// Stats live with the caller's link. A failed decode is a
// *transport.FailedError. The caller then closes the session with
// transport.LabelDone.
func Bob(peer transport.Peer, coins hashing.Coins, bob []uint64, pl Plan) (*Result, error) {
	label := "iblt"
	apply := func(msg []byte) (*Result, error) { return ApplyIBLTMsg(coins, msg, bob) }
	switch {
	case pl.CharPoly:
		label = "charpoly"
		apply = func(msg []byte) (*Result, error) { return ApplyCharPolyMsg(coins, msg, bob, pl.D) }
	case pl.Estimate:
		if err := peer.SendFrame("estimator", BuildDiffEstimator(coins, bob)); err != nil {
			return nil, err
		}
	}
	msg, err := transport.Expect(peer, label)
	if err != nil {
		return nil, err
	}
	res, err := apply(msg)
	if err != nil {
		return nil, transport.Failed(err)
	}
	return res, nil
}

// Reconcile runs a whole set session in process: both halves over a pair on
// ch. alice and bob must be canonical sets; Bob ends with Alice's set, and
// Stats are ch's.
func Reconcile(ch transport.Channel, coins hashing.Coins, alice, bob []uint64, pl Plan) (*Result, error) {
	if pl.CharPoly {
		if err := CheckRange(alice); err != nil {
			return nil, err
		}
	}
	res, err := transport.RunPair(ch,
		func(peer transport.Peer) error {
			_, err := Alice(peer, coins, alice, pl, AliceOpts{})
			return err
		},
		func(peer transport.Peer) (*Result, error) { return Bob(peer, coins, bob, pl) })
	if err != nil {
		return nil, err
	}
	res.Stats = ch.Stats()
	return res, nil
}

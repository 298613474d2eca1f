package forest

import (
	"fmt"

	"sosr/internal/core"
	"sosr/internal/hashing"
	"sosr/internal/transport"
)

// Session is a resolved forest session; both halves must hold the same one.
type Session struct {
	// A and B are Alice's and Bob's side info.
	A, B SideInfo
	// Req is the requested Theorem 6.1 run. A positive Req.D runs it once;
	// otherwise budgets 16, 32, … up to MaxBudget are tried by verified
	// doubling (Corollary 3.8 applied to forests), attempt k on its own coins.
	Req       ReconParams
	MaxBudget int
}

// attempts is the length of the doubling schedule.
func (s Session) attempts() int {
	n := 0
	for budget := 16; budget <= s.MaxBudget; budget *= 2 {
		n++
	}
	return n
}

// attempt returns doubling attempt k's coins and request.
func attempt(coins hashing.Coins, k int) (hashing.Coins, ReconParams) {
	return coins.Sub("forest-attempt", k), ReconParams{Sigma: 1, D: 1, Budget: 16 << k}
}

// AliceOpts hooks a caller into Alice's half. Every field is optional.
type AliceOpts struct {
	// Frames builds one attempt's signature and meta payloads for request
	// req, planned as (rp, params); nil builds them with AliceMsg.
	Frames func(coins hashing.Coins, req, rp ReconParams, params core.Params) (sig, meta []byte, err error)
	// Bounds observes the (d, d̂) each attempt runs with: the edit bound, and
	// for a doubling attempt its budget.
	Bounds func(d, dHat int)
}

// Alice runs Alice's half of a forest session and returns the payload of
// Bob's closing transport.LabelDone. An error means she could not go on (a
// payload failed to build, the budget ran past MaxBudget, the link broke).
func Alice(peer transport.Peer, coins hashing.Coins, fa *Forest, s Session, o AliceOpts) ([]byte, error) {
	if o.Frames == nil {
		o.Frames = func(c hashing.Coins, _, rp ReconParams, params core.Params) ([]byte, []byte, error) {
			return AliceMsg(c, fa, rp, params)
		}
	}
	if o.Bounds == nil {
		o.Bounds = func(int, int) {}
	}
	send := func(c hashing.Coins, req ReconParams, dHat int) error {
		o.Bounds(req.D, dHat)
		rp, params := Plan(s.A, s.B, req)
		sig, meta, err := o.Frames(c, req, rp, params)
		if err != nil {
			return err
		}
		if err := peer.SendFrame("cascade-iblts", sig); err != nil {
			return err
		}
		return peer.SendFrame("forest-meta", meta)
	}
	var err error
	if s.Req.D > 0 {
		if err = send(coins, s.Req, s.Req.D); err == nil {
			err = transport.AwaitDone(peer)
		}
	} else {
		n := s.attempts()
		err = core.DoublingAlice(peer,
			func(k int) error {
				c, req := attempt(coins, k)
				return send(c, req, req.Budget)
			},
			func(k int) error {
				if k == n {
					return fmt.Errorf("%w: forest budget exceeded %d", core.ErrGaveUp, s.MaxBudget)
				}
				return nil
			})
	}
	return transport.AliceResult(err)
}

// Bob runs Bob's half of a forest session and returns a forest isomorphic to
// Alice's with the number of attempts it took; Stats live with the caller's
// link. A failed decode is a *transport.FailedError; doubling that runs out
// of budget gives up with core.ErrGaveUp wrapping the last failure. The
// caller then closes the session with transport.LabelDone.
func Bob(peer transport.Peer, coins hashing.Coins, fb *Forest, s Session) (*Forest, int, error) {
	apply := func(c hashing.Coins, req ReconParams) (*Forest, error) {
		sig, err := transport.Expect(peer, "cascade-iblts")
		if err != nil {
			return nil, err
		}
		meta, err := transport.Expect(peer, "forest-meta")
		if err != nil {
			return nil, err
		}
		rp, params := Plan(s.A, s.B, req)
		rec, err := Apply(c, fb, rp, params, sig, meta)
		if err != nil {
			return nil, transport.Failed(err)
		}
		return rec, nil
	}
	if s.Req.D > 0 {
		rec, err := apply(coins, s.Req)
		return rec, 1, err
	}
	return core.DoublingBob(peer, s.attempts(), func(k int) (*Forest, error) {
		return apply(attempt(coins, k))
	})
}

// Reconcile runs a whole forest session in process: both halves over a pair
// on ch, with s.A and s.B measured from fa and fb and MaxBudget ≤ 0 meaning
// 1<<20. Bob ends with a forest isomorphic to Alice's.
func Reconcile(ch transport.Channel, coins hashing.Coins, fa, fb *Forest, s Session) (*Forest, transport.Stats, error) {
	s.A, s.B = Measure(fa), Measure(fb)
	if s.MaxBudget <= 0 {
		s.MaxBudget = 1 << 20
	}
	rec, err := transport.RunPair(ch,
		func(peer transport.Peer) error {
			_, err := Alice(peer, coins, fa, s, AliceOpts{})
			return err
		},
		func(peer transport.Peer) (*Forest, error) {
			rec, _, err := Bob(peer, coins, fb, s)
			return rec, err
		})
	if err != nil {
		return nil, transport.Stats{}, err
	}
	return rec, ch.Stats(), nil
}

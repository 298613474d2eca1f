package core

import (
	"errors"
	"fmt"
	"time"

	"sosr/internal/hashing"
	"sosr/internal/transport"
)

// Sets-of-sets sessions, written once: Alice and Bob below own all the
// control flow around the one-round payloads — protocol choice, §3.2
// replication, the doubling trick of Corollaries 3.6/3.8, the probe of
// Theorems 3.4/3.10 and the rounds of Theorem 3.9. Callers adapt a half only
// through hooks (payload source, apply step, observers). Both run over a
// transport.Peer: a *wire.Endpoint per machine over TCP, or an in-process
// pair (Reconcile).

// Protocol selects a sets-of-sets algorithm (the paper's Table 1 rows).
// ProtocolAuto resolves to cascade for known d, multiround for unknown d.
type Protocol uint8

// The protocol families.
const (
	ProtocolAuto Protocol = iota
	ProtocolNaive
	ProtocolNested
	ProtocolCascade
	ProtocolMultiRound
)

var protocolNames = [...]string{"auto", "naive", "nested", "cascade", "multiround"}

// String names the protocol.
func (p Protocol) String() string {
	if int(p) < len(protocolNames) {
		return protocolNames[p]
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol maps a protocol name back to its value; "" means auto.
func ParseProtocol(name string) (Protocol, bool) {
	if name == "" {
		name = "auto"
	}
	for i, n := range protocolNames {
		if n == name {
			return Protocol(i), true
		}
	}
	return 0, false
}

// Each one-round protocol's digest kind, and the frame label its payload
// travels under.
var (
	protocolKinds = [...]DigestKind{ProtocolNaive: DigestNaive, ProtocolNested: DigestNested, ProtocolCascade: DigestCascade}
	msgLabels     = [...]string{DigestNaive: "naive-iblt", DigestNested: "nested-iblt", DigestCascade: "cascade-iblts"}
)

// String names the kind's protocol.
func (k DigestKind) String() string {
	for p, pk := range protocolKinds {
		if pk == k && k != 0 {
			return Protocol(p).String()
		}
	}
	return fmt.Sprintf("kind-%d", k)
}

// Plan is a resolved session: the protocol and every bound both halves run
// with. Both parties must hold the same Plan.
type Plan struct {
	// Protocol is never ProtocolAuto.
	Protocol Protocol
	// P is the normalized instance shape.
	P Params
	// D bounds the total element differences; 0 runs the unknown-d variant.
	D int
	// DHat bounds the differing child sets for the one-round protocols
	// with known d (multiround sizes its round 1 from D).
	DHat int
	// Replicas is the §3.2 replication factor for known d: attempt r runs on
	// coins.Sub("replica", r). 0 runs a single attempt on the session's own
	// coins (the bare theorem protocol).
	Replicas int
}

// ResolvePlan fills in a requested plan: the same rules for the in-process
// API and a network server answering a hello. Zero fields of req are
// derived; minS and minH are the shape lower bounds both parties' data imply
// (parent and child sizes), used where req.P leaves S or H unset.
func ResolvePlan(req Plan, minS, minH int) (Plan, error) {
	pl := req
	pl.D = max(pl.D, 0)
	switch pl.Protocol {
	case ProtocolAuto:
		pl.Protocol = ProtocolMultiRound
		if pl.D > 0 {
			pl.Protocol = ProtocolCascade
		}
	case ProtocolNaive, ProtocolNested, ProtocolCascade, ProtocolMultiRound:
	default:
		return pl, fmt.Errorf("core: unknown protocol %v", req.Protocol)
	}
	p := req.P
	if p.S <= 0 {
		p.S = max(minS, 1)
	}
	if p.H <= 0 {
		p.H = max(minH, 1)
	}
	var err error
	if pl.P, err = p.normalized(); err != nil {
		return pl, err
	}
	if pl.Replicas <= 0 {
		pl.Replicas = 3
	}
	if pl.DHat <= 0 {
		pl.DHat = DHat(max(pl.D, 1), pl.P.S)
	}
	return pl, nil
}

// attempts is the size of the plan's replication loop: the replicas for
// known d, one attempt otherwise.
func (pl Plan) attempts() int {
	if pl.D > 0 {
		return max(pl.Replicas, 1)
	}
	return 1
}

// attemptCoins returns attempt r's coins: fresh per replica for known d, the
// session's own otherwise.
func (pl Plan) attemptCoins(coins hashing.Coins, r int) hashing.Coins {
	if pl.D > 0 && pl.Replicas > 0 {
		return coins.Sub("replica", r)
	}
	return coins
}

// maxDoublingAttempts caps the doubling loops; 2^31 differences is far past
// any representable instance.
const maxDoublingAttempts = 31

// AliceOpts hooks a caller into Alice's half. Every field is optional.
type AliceOpts struct {
	// Msg builds a one-round payload; nil builds it with AliceMsg.
	Msg func(kind DigestKind, coins hashing.Coins, d, dHat int) ([]byte, error)
	// Round1 builds multiround round 1; nil builds it with MRAlice1.
	Round1 func(coins hashing.Coins, dHat int) []byte
	// Bounds observes the (d, d̂) each attempt runs with.
	Bounds func(d, dHat int)
	// Probed observes the child-difference probe: when Alice began waiting
	// for it, the d̂ she derived, and the receive error if it never came.
	Probed func(start time.Time, dHat int, err error)
	// MaxD, when positive, also ends doubling once d exceeds it.
	MaxD int
}

type aliceHalf struct {
	peer  transport.Peer
	coins hashing.Coins
	alice [][]uint64
	pl    Plan
	o     AliceOpts
}

// Alice runs Alice's half of a sets-of-sets session and returns the payload
// of Bob's closing LabelDone. An error means she could not go on (a payload
// failed to build, the bound outgrew the instance, the link broke).
func Alice(peer transport.Peer, coins hashing.Coins, alice [][]uint64, pl Plan, o AliceOpts) ([]byte, error) {
	if o.Msg == nil {
		o.Msg = func(kind DigestKind, c hashing.Coins, d, dHat int) ([]byte, error) {
			return AliceMsg(kind, c, alice, pl.P, d, dHat)
		}
	}
	if o.Round1 == nil {
		o.Round1 = func(c hashing.Coins, dHat int) []byte { return MRAlice1(c, alice, dHat) }
	}
	if o.Bounds == nil {
		o.Bounds = func(int, int) {}
	}
	if o.Probed == nil {
		o.Probed = func(time.Time, int, error) {}
	}
	a := &aliceHalf{peer: peer, coins: coins, alice: alice, pl: pl, o: o}
	var err error
	switch {
	case pl.Protocol == ProtocolMultiRound:
		err = a.multiRound()
	case pl.D > 0:
		kind := protocolKinds[pl.Protocol]
		err = a.replicate(func(c hashing.Coins) error {
			if err := a.send(kind, c, pl.D, pl.DHat); err != nil {
				return err
			}
			return a.verdict()
		})
	case pl.Protocol == ProtocolNaive:
		err = a.probedShot()
	default:
		err = a.doubling(protocolKinds[pl.Protocol])
	}
	return transport.AliceResult(err)
}

// verdict reads Bob's answer to an attempt: nil for a retry request, or the
// session's end.
func (a *aliceHalf) verdict() error {
	label, _, err := transport.AliceRecv(a.peer)
	if err == nil && label != transport.LabelRetry {
		err = transport.Unexpected(label)
	}
	return err
}

// send builds and sends one one-round payload.
func (a *aliceHalf) send(kind DigestKind, coins hashing.Coins, d, dHat int) error {
	a.o.Bounds(d, dHat)
	body, err := a.o.Msg(kind, coins, d, dHat)
	if err != nil {
		return err
	}
	return a.peer.SendFrame(msgLabels[kind], body)
}

// probe receives Bob's child-difference estimator and derives d̂ from it.
func (a *aliceHalf) probe() (int, error) {
	start := time.Now()
	label, msg, err := transport.AliceRecv(a.peer)
	if err == nil && label != "childdiff-estimator" {
		err = transport.Unexpected(label)
	}
	dHat := 0
	if err == nil {
		dHat = EstimateChildDiff(msg, a.coins, a.alice, a.pl.P)
	}
	a.o.Probed(start, dHat, err)
	return dHat, err
}

// replicate runs the plan's attempts (§3.2 replication for known d). An
// attempt returns nil only when Bob asked for the next one.
func (a *aliceHalf) replicate(attempt func(c hashing.Coins) error) error {
	n := a.pl.attempts()
	for r := 0; r < n; r++ {
		if err := attempt(a.pl.attemptCoins(a.coins, r)); err != nil {
			return err
		}
	}
	return fmt.Errorf("%w: %d attempts", ErrGaveUp, n)
}

// probedShot is Theorem 3.4: d̂ from Bob's probe, then one Theorem 3.3 shot.
func (a *aliceHalf) probedShot() error {
	dHat, err := a.probe()
	if err != nil {
		return err
	}
	if err := a.send(DigestNaive, a.coins, 1, dHat); err != nil {
		return err
	}
	return transport.AwaitDone(a.peer)
}

// doubling runs attempt k at d = 2^k. Alice gives up once the last d Bob
// refused outgrows any difference the instance can hold.
func (a *aliceHalf) doubling(kind DigestKind) error {
	return DoublingAlice(a.peer,
		func(k int) error {
			d := 1 << k
			return a.send(kind, a.coins.Sub("doubling-attempt", k), d, DHat(d, a.pl.P.S))
		},
		func(k int) error {
			if k == 0 {
				return nil
			}
			if d := 1 << (k - 1); d > 4*a.pl.P.S*a.pl.P.H || (a.o.MaxD > 0 && d > a.o.MaxD) {
				return fmt.Errorf("%w: doubling bound %d exceeds instance size", ErrGaveUp, d)
			}
			if k == maxDoublingAttempts {
				return fmt.Errorf("%w: doubling attempts exhausted", ErrGaveUp)
			}
			return nil
		})
}

// DoublingAlice runs Alice's side of verified doubling, the trick of
// Corollaries 3.6/3.8 that every protocol without a known bound shares:
// attempt k sends a payload sized for the k-th bound on its own coins, and
// Bob answers each with a counted "ack" or "retry". Before attempt k, stop(k)
// may end the session with its error (the bound outgrew the instance or a
// cap). After Bob's ack she waits for his close.
func DoublingAlice(peer transport.Peer, attempt func(k int) error, stop func(k int) error) error {
	for k := 0; ; k++ {
		if err := stop(k); err != nil {
			return err
		}
		if err := attempt(k); err != nil {
			return err
		}
		label, _, err := transport.AliceRecv(peer)
		if err != nil {
			return err
		}
		switch label {
		case "ack":
			return transport.AwaitDone(peer)
		case "retry":
		default:
			return transport.Unexpected(label)
		}
	}
}

// DoublingBob runs Bob's side of verified doubling for at most n attempts.
// An attempt reports a decode failure as *transport.FailedError, which Bob
// answers with "retry"; his first success is answered with "ack" and
// returned with its attempt count. Running out gives up with ErrGaveUp
// wrapping the last failure.
func DoublingBob[T any](peer transport.Peer, n int, attempt func(k int) (T, error)) (T, int, error) {
	var zero T
	var last error
	for k := 0; k < n; k++ {
		res, err := attempt(k)
		if err == nil {
			if err := peer.SendFrame("ack", []byte{1}); err != nil {
				return zero, 0, err
			}
			return res, k + 1, nil
		}
		var fe *transport.FailedError
		if !errors.As(err, &fe) {
			if last != nil {
				err = fmt.Errorf("%w (last attempt: %v)", err, last)
			}
			return zero, 0, err
		}
		last = fe.Err
		if err := peer.SendFrame("retry", []byte{0}); err != nil {
			return zero, 0, err
		}
	}
	if last == nil {
		return zero, 0, fmt.Errorf("%w: no attempt fits", ErrGaveUp)
	}
	return zero, 0, fmt.Errorf("%w: %w", ErrGaveUp, last)
}

// multiRound is Theorem 3.9 (known d, replicated) or Theorem 3.10 (probe
// first, one attempt).
func (a *aliceHalf) multiRound() error {
	dHat := DHat(a.pl.D, a.pl.P.S)
	if a.pl.D <= 0 {
		var err error
		if dHat, err = a.probe(); err != nil {
			return err
		}
	}
	return a.replicate(func(c hashing.Coins) error {
		a.o.Bounds(a.pl.D, dHat)
		if err := a.peer.SendFrame("hash-iblt", a.o.Round1(c, dHat)); err != nil {
			return err
		}
		label, msg2, err := transport.AliceRecv(a.peer)
		if err != nil || label == transport.LabelRetry {
			return err
		}
		if label != "hash-iblt+estimators" {
			return transport.Unexpected(label)
		}
		round3, _, err := MRAlice3(c, a.alice, a.pl.P, a.pl.D, msg2)
		if err != nil {
			return err
		}
		if err := a.peer.SendFrame("pair-payloads", round3); err != nil {
			return err
		}
		return a.verdict()
	})
}

// BobOpts hooks a caller into Bob's half. Every field is optional.
type BobOpts struct {
	// Apply decodes one one-round payload; nil decodes with ApplyMsg. dHat
	// is 0 when Bob cannot know the bound Alice sized it with (naive
	// unknown-d, where she derives it from his probe).
	Apply func(kind DigestKind, coins hashing.Coins, body []byte, d, dHat int) (*Result, error)
	// Finished observes each multiround final step: when it started, the
	// attempt (from 1) and its outcome.
	Finished func(start time.Time, attempt int, res *Result, err error)
}

type bobHalf struct {
	peer  transport.Peer
	coins hashing.Coins
	bob   [][]uint64
	pl    Plan
	o     BobOpts
}

// Bob runs Bob's half of a sets-of-sets session and returns his copy of
// Alice's parent set with Attempts set; Stats live with the caller's link.
// The caller then closes the session with transport.LabelDone.
func Bob(peer transport.Peer, coins hashing.Coins, bob [][]uint64, pl Plan, o BobOpts) (*Result, error) {
	if o.Apply == nil {
		o.Apply = func(kind DigestKind, c hashing.Coins, body []byte, d, dHat int) (*Result, error) {
			return ApplyMsg(kind, c, body, bob, pl.P, d, dHat)
		}
	}
	if o.Finished == nil {
		o.Finished = func(time.Time, int, *Result, error) {}
	}
	b := &bobHalf{peer: peer, coins: coins, bob: bob, pl: pl, o: o}
	switch {
	case pl.Protocol == ProtocolMultiRound:
		if pl.D <= 0 {
			if err := b.sendProbe(); err != nil {
				return nil, err
			}
		}
		return b.replicate(b.multiRound)
	case pl.D > 0:
		kind := protocolKinds[pl.Protocol]
		return b.replicate(func(c hashing.Coins, _ int) (*Result, error) {
			return b.shot(kind, c, pl.D, pl.DHat)
		})
	case pl.Protocol == ProtocolNaive:
		if err := b.sendProbe(); err != nil {
			return nil, err
		}
		// Theorem 3.4: Alice sized the shot from the probe; Bob never learns d̂.
		return b.shot(DigestNaive, coins, 1, 0)
	}
	return b.doubling(protocolKinds[pl.Protocol])
}

func (b *bobHalf) sendProbe() error {
	return b.peer.SendFrame("childdiff-estimator", BuildChildDiffProbe(b.coins, b.bob, b.pl.P))
}

// shot receives and applies one one-round payload.
func (b *bobHalf) shot(kind DigestKind, c hashing.Coins, d, dHat int) (*Result, error) {
	body, err := transport.Expect(b.peer, msgLabels[kind])
	if err != nil {
		return nil, err
	}
	res, err := b.o.Apply(kind, c, body, d, dHat)
	if err != nil {
		return nil, transport.Failed(err)
	}
	res.Attempts = 1
	return res, nil
}

// replicate runs the plan's attempts until one decodes, asking Alice for
// each next one with transport.LabelRetry. An attempt reports a decode
// failure as *transport.FailedError; a replication loop that runs out gives
// up.
func (b *bobHalf) replicate(attempt func(c hashing.Coins, r int) (*Result, error)) (*Result, error) {
	n := b.pl.attempts()
	var last error
	for r := 0; r < n; r++ {
		res, err := attempt(b.pl.attemptCoins(b.coins, r), r)
		if err == nil {
			res.Attempts = r + 1
			return res, nil
		}
		var fe *transport.FailedError
		if !errors.As(err, &fe) {
			return nil, err
		}
		last = fe.Err
		if r+1 < n {
			if err := b.peer.SendFrame(transport.LabelRetry, nil); err != nil {
				return nil, err
			}
		}
	}
	if b.pl.Replicas > 0 {
		last = fmt.Errorf("%w: %v", ErrGaveUp, last)
	}
	return nil, &transport.FailedError{Attempts: n, Err: last}
}

func (b *bobHalf) doubling(kind DigestKind) (*Result, error) {
	res, attempts, err := DoublingBob(b.peer, maxDoublingAttempts, func(k int) (*Result, error) {
		d := 1 << k
		return b.shot(kind, b.coins.Sub("doubling-attempt", k), d, DHat(d, b.pl.P.S))
	})
	if err != nil {
		return nil, err
	}
	res.Attempts = attempts
	return res, nil
}

// multiRound runs Bob's rounds of one Theorem 3.9 attempt.
func (b *bobHalf) multiRound(c hashing.Coins, r int) (*Result, error) {
	msg1, err := transport.Expect(b.peer, "hash-iblt")
	if err != nil {
		return nil, err
	}
	round2, st, err := MRBob2(c, b.bob, b.pl.P, msg1)
	if err != nil {
		return nil, &transport.FailedError{Err: err}
	}
	if err := b.peer.SendFrame("hash-iblt+estimators", round2); err != nil {
		return nil, err
	}
	msg3, err := transport.Expect(b.peer, "pair-payloads")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := MRBobFinish(c, b.bob, st, msg3)
	b.o.Finished(start, r+1, res, err)
	if err != nil {
		return nil, &transport.FailedError{Err: err}
	}
	return res, nil
}

// Reconcile runs a whole sets-of-sets session in process: both halves over a
// pair on ch. Bob ends with Alice's parent set; Stats are ch's.
func Reconcile(ch transport.Channel, coins hashing.Coins, alice, bob [][]uint64, pl Plan) (*Result, error) {
	p, err := pl.P.normalized()
	if err != nil {
		return nil, err
	}
	pl.P = p
	res, err := transport.RunPair(ch,
		func(peer transport.Peer) error {
			_, err := Alice(peer, coins, alice, pl, AliceOpts{})
			return err
		},
		func(peer transport.Peer) (*Result, error) { return Bob(peer, coins, bob, pl, BobOpts{}) })
	if err != nil {
		return nil, err
	}
	res.Stats = ch.Stats()
	return res, nil
}

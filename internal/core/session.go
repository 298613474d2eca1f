package core

import (
	"errors"
	"fmt"
	"time"

	"sosr/internal/hashing"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// Sets-of-sets sessions, written once: Alice and Bob below own all the
// control flow around the one-round payloads — protocol choice, §3.2
// replication, the doubling trick of Corollaries 3.6/3.8, the probe of
// Theorems 3.4/3.10 and the rounds of Theorem 3.9. Callers adapt a half only
// through hooks (payload source, apply step, observers).

// Peer is one party's end of a session link: labeled frames in order. Over
// TCP it is a *wire.Endpoint per machine; in process, a pair (Reconcile).
type Peer interface {
	SendFrame(label string, payload []byte) error
	RecvFrame() (label string, payload []byte, err error)
}

// Session-control labels; like every control frame they are not counted in
// Stats. Bob asks for the next replica with LabelRetry. LabelDone closes the
// session: Bob's side sends it once his half has returned.
const (
	LabelRetry = wire.CtlPrefix + "retry"
	LabelDone  = wire.CtlPrefix + "done"
)

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

// FailedError reports that Bob's decoding failed — a protocol outcome,
// unlike a broken link or an error from Alice — after Attempts attempts.
type FailedError struct {
	Attempts int
	Err      error
}

func (e *FailedError) Error() string { return e.Err.Error() }
func (e *FailedError) Unwrap() error { return e.Err }

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

// finished unwinds Alice's half when Bob closes the session.
type finished struct{ payload []byte }

func (*finished) Error() string { return "core: session finished" }

type aliceHalf struct {
	peer  Peer
	coins hashing.Coins
	alice [][]uint64
	pl    Plan
	o     AliceOpts
}

// Alice runs Alice's half of a sets-of-sets session and returns the payload
// of Bob's closing LabelDone. An error means she could not go on (a payload
// failed to build, the bound outgrew the instance, the link broke).
func Alice(peer Peer, coins hashing.Coins, alice [][]uint64, pl Plan, o AliceOpts) ([]byte, error) {
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
	var f *finished
	if errors.As(err, &f) {
		return f.payload, nil
	}
	return nil, err
}

// recv reads Bob's next frame; LabelDone unwinds the half as *finished.
func (a *aliceHalf) recv() (string, []byte, error) {
	label, payload, err := a.peer.RecvFrame()
	if err == nil && label == LabelDone {
		return "", nil, &finished{payload}
	}
	return label, payload, err
}

func unexpected(label string) error { return fmt.Errorf("core: unexpected frame %q", label) }

// end reads Bob's close of the session; any other frame is an error.
func (a *aliceHalf) end() error {
	label, _, err := a.recv()
	if err == nil {
		err = unexpected(label)
	}
	return err
}

// verdict reads Bob's answer to an attempt: nil for a retry request, or the
// session's end.
func (a *aliceHalf) verdict() error {
	label, _, err := a.recv()
	if err == nil && label != LabelRetry {
		err = unexpected(label)
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
	label, msg, err := a.recv()
	if err == nil && label != "childdiff-estimator" {
		err = unexpected(label)
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
	return a.end()
}

// doubling is the repeated-doubling trick of Corollaries 3.6/3.8: attempt k
// runs at d = 2^k on fresh coins and Bob answers each with a counted "ack"
// or "retry". Alice gives up once d outgrows any difference the instance
// can hold.
func (a *aliceHalf) doubling(kind DigestKind) error {
	for k := 0; k < maxDoublingAttempts; k++ {
		d := 1 << k
		if err := a.send(kind, a.coins.Sub("doubling-attempt", k), d, DHat(d, a.pl.P.S)); err != nil {
			return err
		}
		label, _, err := a.recv()
		if err != nil {
			return err
		}
		switch label {
		case "ack":
			return a.end()
		case "retry":
			if d > 4*a.pl.P.S*a.pl.P.H || (a.o.MaxD > 0 && d > a.o.MaxD) {
				return fmt.Errorf("%w: doubling bound %d exceeds instance size", ErrGaveUp, d)
			}
		default:
			return unexpected(label)
		}
	}
	return fmt.Errorf("%w: doubling attempts exhausted", ErrGaveUp)
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
		label, msg2, err := a.recv()
		if err != nil || label == LabelRetry {
			return err
		}
		if label != "hash-iblt+estimators" {
			return unexpected(label)
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
	peer  Peer
	coins hashing.Coins
	bob   [][]uint64
	pl    Plan
	o     BobOpts
}

// Bob runs Bob's half of a sets-of-sets session and returns his copy of
// Alice's parent set with Attempts set; Stats live with the caller's link.
// The caller then closes the session with LabelDone.
func Bob(peer Peer, coins hashing.Coins, bob [][]uint64, pl Plan, o BobOpts) (*Result, error) {
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

// expect reads Alice's next frame, which must carry label.
func (b *bobHalf) expect(label string) ([]byte, error) {
	got, payload, err := b.peer.RecvFrame()
	if err != nil {
		return nil, err
	}
	if got != label {
		return nil, fmt.Errorf("core: expected frame %q, got %q", label, got)
	}
	return payload, nil
}

func (b *bobHalf) sendProbe() error {
	return b.peer.SendFrame("childdiff-estimator", BuildChildDiffProbe(b.coins, b.bob, b.pl.P))
}

// shot receives and applies one one-round payload.
func (b *bobHalf) shot(kind DigestKind, c hashing.Coins, d, dHat int) (*Result, error) {
	body, err := b.expect(msgLabels[kind])
	if err != nil {
		return nil, err
	}
	res, err := b.o.Apply(kind, c, body, d, dHat)
	if err != nil {
		return nil, &FailedError{Attempts: 1, Err: err}
	}
	res.Attempts = 1
	return res, nil
}

// replicate runs the plan's attempts until one decodes, asking Alice for
// each next one with LabelRetry. An attempt reports a decode failure as
// *FailedError; a replication loop that runs out gives up.
func (b *bobHalf) replicate(attempt func(c hashing.Coins, r int) (*Result, error)) (*Result, error) {
	n := b.pl.attempts()
	var last error
	for r := 0; r < n; r++ {
		res, err := attempt(b.pl.attemptCoins(b.coins, r), r)
		if err == nil {
			res.Attempts = r + 1
			return res, nil
		}
		var fe *FailedError
		if !errors.As(err, &fe) {
			return nil, err
		}
		last = fe.Err
		if r+1 < n {
			if err := b.peer.SendFrame(LabelRetry, nil); err != nil {
				return nil, err
			}
		}
	}
	if b.pl.Replicas > 0 {
		last = fmt.Errorf("%w: %v", ErrGaveUp, last)
	}
	return nil, &FailedError{Attempts: n, Err: last}
}

func (b *bobHalf) doubling(kind DigestKind) (*Result, error) {
	var last error
	for k := 0; k < maxDoublingAttempts; k++ {
		d := 1 << k
		res, err := b.shot(kind, b.coins.Sub("doubling-attempt", k), d, DHat(d, b.pl.P.S))
		if err == nil {
			if err := b.peer.SendFrame("ack", []byte{1}); err != nil {
				return nil, err
			}
			res.Attempts = k + 1
			return res, nil
		}
		var fe *FailedError
		if !errors.As(err, &fe) {
			if last != nil {
				err = fmt.Errorf("%w (last attempt: %v)", err, last)
			}
			return nil, err
		}
		last = fe.Err
		if err := b.peer.SendFrame("retry", []byte{0}); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrGaveUp, last)
}

// multiRound runs Bob's rounds of one Theorem 3.9 attempt.
func (b *bobHalf) multiRound(c hashing.Coins, r int) (*Result, error) {
	msg1, err := b.expect("hash-iblt")
	if err != nil {
		return nil, err
	}
	round2, st, err := MRBob2(c, b.bob, b.pl.P, msg1)
	if err != nil {
		return nil, &FailedError{Err: err}
	}
	if err := b.peer.SendFrame("hash-iblt+estimators", round2); err != nil {
		return nil, err
	}
	msg3, err := b.expect("pair-payloads")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := MRBobFinish(c, b.bob, st, msg3)
	b.o.Finished(start, r+1, res, err)
	if err != nil {
		return nil, &FailedError{Err: err}
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
	return runPair(ch,
		func(peer Peer) error {
			_, err := Alice(peer, coins, alice, pl, AliceOpts{})
			return err
		},
		func(peer Peer) (*Result, error) { return Bob(peer, coins, bob, pl, BobOpts{}) })
}

// errPeerClosed is what a pair end reads once the other half has returned.
var errPeerClosed = errors.New("core: peer closed the session")

type frame struct {
	label   string
	payload []byte
}

// pairEnd is one party's end of an in-process pair. Protocol frames pass
// through the shared Channel, which counts them and hands back the
// receiver's copy (tampered, recorded); control frames skip it, as on the
// wire. The halves take turns — each sends only after reading the other's
// last frame — so the hand-off orders their Channel calls and ch needs no
// lock.
type pairEnd struct {
	ch       transport.Channel
	role     transport.Role
	in       <-chan frame
	out      chan<- frame
	peerGone <-chan struct{}
}

func (e *pairEnd) SendFrame(label string, payload []byte) error {
	if !wire.IsControl(label) {
		payload = e.ch.Send(e.role, label, payload)
	}
	select {
	case e.out <- frame{label, payload}:
		return nil
	case <-e.peerGone:
		return errPeerClosed
	}
}

func (e *pairEnd) RecvFrame() (string, []byte, error) {
	select {
	case f := <-e.in:
		return f.label, f.payload, nil
	case <-e.peerGone:
	}
	select { // frames sent before the peer returned are still delivered
	case f := <-e.in:
		return f.label, f.payload, nil
	default:
		return "", nil, errPeerClosed
	}
}

// pairDepth bounds the frames in flight one way; no half sends more than two
// frames without reading an answer, so a live peer never blocks a send.
const pairDepth = 4

// runPair runs Alice's half on a background goroutine and Bob's on the
// caller's, over a pair on ch. Either half returning unblocks the other; a
// panic in Alice's half is re-raised here. Bob's own decode failure is the
// session's error; otherwise Alice's error, which Bob only saw as a closed
// peer, explains the failure.
func runPair(ch transport.Channel, alice func(Peer) error, bob func(Peer) (*Result, error)) (*Result, error) {
	toBob, toAlice := make(chan frame, pairDepth), make(chan frame, pairDepth)
	aliceGone, bobGone := make(chan struct{}), make(chan struct{})
	a := &pairEnd{ch: ch, role: transport.Alice, in: toAlice, out: toBob, peerGone: bobGone}
	b := &pairEnd{ch: ch, role: transport.Bob, in: toBob, out: toAlice, peerGone: aliceGone}

	var aErr error
	var aPanic any
	go func() {
		defer close(aliceGone)
		defer func() { aPanic = recover() }()
		aErr = alice(a)
	}()
	res, bErr := func() (*Result, error) {
		// Wait for Alice on every exit, a panic in Bob's half included, so
		// nothing touches ch after we return.
		defer func() { <-aliceGone }()
		defer close(bobGone)
		res, err := bob(b)
		_ = b.SendFrame(LabelDone, nil) // fails only when Alice already returned
		return res, err
	}()
	if aPanic != nil {
		panic(aPanic)
	}
	if bErr != nil {
		var fe *FailedError
		if errors.As(bErr, &fe) {
			return nil, fe.Err
		}
		if aErr != nil {
			return nil, aErr
		}
		return nil, bErr
	}
	res.Stats = ch.Stats()
	return res, nil
}

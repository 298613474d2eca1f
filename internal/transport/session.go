package transport

import (
	"errors"
	"fmt"
)

// Sessions as two halves: each protocol writes Alice's and Bob's control
// flow once, over a Peer. Over TCP a Peer is one party's framed connection
// (wire.Endpoint); in process, RunPair joins both halves through a Channel.

// Peer is one party's end of a session link: labeled frames in order.
type Peer interface {
	SendFrame(label string, payload []byte) error
	RecvFrame() (label string, payload []byte, err error)
}

// CtlPrefix marks session-control labels. Control frames steer a session
// (retry requests, its close, a network handshake) and are not counted in
// Stats.
const CtlPrefix = "ctl/"

// IsControl reports whether a label names a control frame.
func IsControl(label string) bool {
	return len(label) >= len(CtlPrefix) && label[:len(CtlPrefix)] == CtlPrefix
}

// Session-control labels. Bob asks for the next replica with LabelRetry.
// LabelDone closes the session: Bob's side sends it once his half has
// returned.
const (
	LabelRetry = CtlPrefix + "retry"
	LabelDone  = CtlPrefix + "done"
)

// FailedError reports that Bob's decoding failed — a protocol outcome,
// unlike a broken link or an error from Alice — after Attempts attempts.
type FailedError struct {
	Attempts int
	Err      error
}

func (e *FailedError) Error() string { return e.Err.Error() }
func (e *FailedError) Unwrap() error { return e.Err }

// Failed marks err, from Bob's first attempt, as a decode failure.
func Failed(err error) error { return &FailedError{Attempts: 1, Err: err} }

// finished unwinds an Alice half when Bob closes the session.
type finished struct{ payload []byte }

func (*finished) Error() string { return "transport: session finished" }

// Unexpected reports a frame the protocol does not allow at this point.
func Unexpected(label string) error { return fmt.Errorf("transport: unexpected frame %q", label) }

// AliceRecv reads Bob's next frame on Alice's side. Bob's LabelDone comes
// back as an error that AliceResult turns into his closing payload, so a
// half can return it from any depth.
func AliceRecv(peer Peer) (string, []byte, error) {
	label, payload, err := peer.RecvFrame()
	if err == nil && label == LabelDone {
		return "", nil, &finished{payload}
	}
	return label, payload, err
}

// AwaitDone reads Bob's close of the session; any other frame is an error.
func AwaitDone(peer Peer) error {
	label, _, err := AliceRecv(peer)
	if err == nil {
		err = Unexpected(label)
	}
	return err
}

// AliceResult converts what an Alice half returned: Bob's close yields the
// payload of his LabelDone, anything else is her error.
func AliceResult(err error) ([]byte, error) {
	var f *finished
	if errors.As(err, &f) {
		return f.payload, nil
	}
	return nil, err
}

// Expect reads the next frame, which must carry label.
func Expect(peer Peer, label string) ([]byte, error) {
	got, payload, err := peer.RecvFrame()
	if err != nil {
		return nil, err
	}
	if got != label {
		return nil, fmt.Errorf("transport: expected frame %q, got %q", label, got)
	}
	return payload, nil
}

// ErrPeerClosed is what a pair end reads once the other half has returned.
var ErrPeerClosed = errors.New("transport: peer closed the session")

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
	ch       Channel
	role     Role
	in       <-chan frame
	out      chan<- frame
	peerGone <-chan struct{}
}

func (e *pairEnd) SendFrame(label string, payload []byte) error {
	if !IsControl(label) {
		payload = e.ch.Send(e.role, label, payload)
	}
	select {
	case e.out <- frame{label, payload}:
		return nil
	case <-e.peerGone:
		return ErrPeerClosed
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
		return "", nil, ErrPeerClosed
	}
}

// pairDepth bounds the frames in flight one way; no half sends more than two
// frames without reading an answer, so a live peer never blocks a send.
const pairDepth = 4

// RunPair runs Alice's half on a background goroutine and Bob's on the
// caller's, over a pair on ch, then closes the session with LabelDone. Either
// half returning unblocks the other; a panic in Alice's half is re-raised
// here. Bob's own failure (a *FailedError is unwrapped) is the session's
// error, unless he only saw Alice leave: then her error explains it.
func RunPair[T any](ch Channel, alice func(Peer) error, bob func(Peer) (T, error)) (T, error) {
	toBob, toAlice := make(chan frame, pairDepth), make(chan frame, pairDepth)
	aliceGone, bobGone := make(chan struct{}), make(chan struct{})
	a := &pairEnd{ch: ch, role: Alice, in: toAlice, out: toBob, peerGone: bobGone}
	b := &pairEnd{ch: ch, role: Bob, in: toBob, out: toAlice, peerGone: aliceGone}

	var aErr error
	var aPanic any
	go func() {
		defer close(aliceGone)
		defer func() { aPanic = recover() }()
		aErr = alice(a)
	}()
	res, bErr := func() (T, error) {
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
	var fe *FailedError
	switch {
	case bErr == nil:
	case errors.As(bErr, &fe):
		bErr = fe.Err
	case aErr != nil && errors.Is(bErr, ErrPeerClosed):
		bErr = aErr
	}
	return res, bErr
}

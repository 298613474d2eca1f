package core

import (
	"errors"
	"testing"
	"time"

	"sosr/internal/hashing"
	"sosr/internal/transport"
)

// within fails the test instead of hanging when fn deadlocks.
func within(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pair deadlocked")
	}
}

// recvOnly is a half that waits for one frame and returns its error.
func recvOnly(peer transport.Peer) (*Result, error) {
	_, _, err := peer.RecvFrame()
	return nil, err
}

func TestPairReraisesAlicePanic(t *testing.T) {
	catch := func(run func()) (got any) {
		defer func() { got = recover() }()
		run()
		return nil
	}
	got := catch(func() {
		transport.RunPair(transport.New(), func(transport.Peer) error { panic("alice boom") }, recvOnly)
	})
	if got != "alice boom" {
		t.Fatalf("recovered %v, want Alice's panic on the caller's goroutine", got)
	}
	// A real trigger: Alice's naive encoder writes past a too-small H. Should
	// it panic, the panic must reach the caller, where it can be recovered;
	// an encoder that reports the misfit as an error passes too.
	p := Params{S: 8, H: 2, U: testU}
	alice := [][]uint64{{1, 2, 3, 4, 5, 6}}
	var err error
	if got := catch(func() { _, err = NaiveKnownD(transport.New(), hashing.NewCoins(1), alice, nil, p, 2) }); got == nil && err == nil {
		t.Fatal("an undersized H neither failed nor panicked")
	}
}

func TestPairUnblocksWhenOneHalfFails(t *testing.T) {
	errAlice := errors.New("alice failed")
	within(t, func() {
		// Alice fails while Bob waits for her payload: Bob reads a closed
		// peer, and the session reports Alice's error.
		_, err := transport.RunPair(transport.New(), func(transport.Peer) error { return errAlice }, recvOnly)
		if !errors.Is(err, errAlice) {
			t.Errorf("err = %v, want Alice's", err)
		}
	})
	within(t, func() {
		// Bob fails while Alice waits for his probe: Alice reads the
		// session's close, and the session reports Bob's failure.
		var aliceSaw string
		_, err := transport.RunPair(transport.New(),
			func(peer transport.Peer) error {
				label, _, err := peer.RecvFrame()
				aliceSaw = label
				return err
			},
			func(transport.Peer) (*Result, error) { return nil, &transport.FailedError{Attempts: 1, Err: ErrVerify} })
		if !errors.Is(err, ErrVerify) || aliceSaw != transport.LabelDone {
			t.Errorf("err = %v, Alice read %q; want Bob's failure and %q", err, aliceSaw, transport.LabelDone)
		}
	})
}

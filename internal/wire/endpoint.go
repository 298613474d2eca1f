package wire

import (
	"fmt"
	"io"
	"sync/atomic"

	"sosr/internal/transport"
)

// Endpoint is one party's end of a framed connection, adapting it to
// transport.Channel: Send with the local role writes a frame; Send with the
// remote role reads the peer's next frame (the payload argument must be nil —
// a real deployment cannot fabricate the remote party's bytes) and verifies
// its label. Protocol frames are mirrored into an embedded Session so
// Stats()/Rounds() report exactly what the in-process simulation would;
// control frames ("ctl/...") count only toward WireBytes.
//
// transport.Channel has no error returns, so I/O failures follow the
// bufio.Writer model: the first error sticks, subsequent operations are
// no-ops returning empty payloads, and callers check Err() (the
// error-returning SendFrame/RecvFrame API is preferred for drivers). An
// Endpoint is not safe for concurrent use; each session owns one.
type Endpoint struct {
	rw         io.ReadWriter
	local      transport.Role
	rec        *transport.Session
	maxPayload int
	err        error
	// bytesIn/bytesOut are atomic so an observer (metrics collector, server
	// log) can read a live session's byte totals without racing the session
	// goroutine; they are the single source of wire-byte truth — every
	// other report (NetStats, session logs, /metrics) derives from them.
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	wbuf     []byte // reusable frame-encode scratch (SendFrame)

	// rbufs is the bounded read ring: each received frame lands in the next
	// slot, so a payload returned by RecvFrame stays valid for at least
	// readRingSlots − (readAheadDepth + 1) further receives — comfortably
	// above the two concurrently held payloads any protocol flow needs
	// (graph/forest signature + edge/meta frames). rnext is owned by the
	// session goroutine, or by the read-ahead goroutine once one is started.
	rbufs [readRingSlots][]byte
	rnext int

	// ra delivers pipelined frames once StartReadAhead runs; raStop tells the
	// reader goroutine to discard an undelivered frame and exit.
	ra     chan raFrame
	raStop chan struct{}
}

// maxRetainedWriteBuf caps the scratch kept between frames; a single huge
// payload must not pin its buffer for the connection's lifetime.
const maxRetainedWriteBuf = 1 << 20

// maxRetainedReadBuf caps each read-ring slot kept between frames, mirroring
// the write-side bound.
const maxRetainedReadBuf = 1 << 20

// readRingSlots is the read-ring size. The invariant: slots in flight =
// frames queued in the read-ahead channel (≤ readAheadDepth) + one being read
// + payloads the session still references (≤ 2 in every protocol flow), so
// readAheadDepth + 3 slots suffice; 6 leaves a margin.
const readRingSlots = 6

// readAheadDepth bounds how many frames the reader goroutine decodes ahead of
// the session consuming them.
const readAheadDepth = 2

// raFrame is one pipelined frame in flight between the reader goroutine and
// RecvFrame. Byte and stats accounting happen at consume time, so pipelined
// and synchronous sessions report identical totals at every protocol step.
type raFrame struct {
	label   string
	payload []byte
	n       int
	err     error
}

// NewEndpoint wraps one side of a framed connection. local is the role this
// process plays (the sosrnet server is Alice, the client Bob).
func NewEndpoint(rw io.ReadWriter, local transport.Role) *Endpoint {
	return &Endpoint{rw: rw, local: local, rec: transport.New(), maxPayload: DefaultMaxPayload}
}

// SetMaxPayload bounds accepted frame payloads (≤ 0 restores the default).
func (e *Endpoint) SetMaxPayload(n int) {
	if n <= 0 {
		n = DefaultMaxPayload
	}
	e.maxPayload = n
}

// Local returns the role this endpoint plays.
func (e *Endpoint) Local() transport.Role { return e.local }

// remote returns the peer's role.
func (e *Endpoint) remote() transport.Role {
	if e.local == transport.Alice {
		return transport.Bob
	}
	return transport.Alice
}

// Err returns the first I/O or framing error, if any.
func (e *Endpoint) Err() error { return e.err }

// fail records the first error.
func (e *Endpoint) fail(err error) error {
	if e.err == nil && err != nil {
		e.err = err
	}
	return err
}

// WireBytes returns the total bytes read from and written to the connection,
// framing included.
func (e *Endpoint) WireBytes() (in, out int64) { return e.bytesIn.Load(), e.bytesOut.Load() }

// BytesRead returns the total connection bytes read, framing included. Safe
// to call concurrently with the session goroutine.
func (e *Endpoint) BytesRead() int64 { return e.bytesIn.Load() }

// BytesWritten returns the total connection bytes written, framing included.
// Safe to call concurrently with the session goroutine.
func (e *Endpoint) BytesWritten() int64 { return e.bytesOut.Load() }

// SendFrame writes a labeled frame from the local party, recording protocol
// frames in the stats mirror. The frame is encoded into a per-endpoint
// scratch buffer, so steady-state sends do not allocate per frame.
func (e *Endpoint) SendFrame(label string, payload []byte) error {
	if e.err != nil {
		return e.err
	}
	scratch := e.wbuf
	if need := FrameSize(label, len(payload)); cap(scratch) < need {
		scratch = make([]byte, 0, need)
	}
	buf, err := AppendFrame(scratch[:0], label, payload)
	if err != nil {
		return e.fail(err)
	}
	if cap(buf) <= maxRetainedWriteBuf {
		e.wbuf = buf[:0]
	} else {
		e.wbuf = nil
	}
	n, err := e.rw.Write(buf)
	e.bytesOut.Add(int64(n))
	if err != nil {
		return e.fail(err)
	}
	if !transport.IsControl(label) {
		e.rec.Record(e.local, label, len(payload))
	}
	return nil
}

// readOne decodes the next frame into the next read-ring slot. Called from
// the session goroutine, or from the read-ahead goroutine once one owns the
// ring.
func (e *Endpoint) readOne() (label string, payload []byte, n int, err error) {
	slot := e.rnext
	e.rnext = (e.rnext + 1) % readRingSlots
	label, payload, n, buf, err := readFrameInto(e.rw, e.maxPayload, e.rbufs[slot])
	if cap(buf) <= maxRetainedReadBuf {
		e.rbufs[slot] = buf
	} else {
		e.rbufs[slot] = nil
	}
	return label, payload, n, err
}

// StartReadAhead pipelines frame reads: a reader goroutine decodes frame k+1
// off the connection while the session is still processing frame k, up to
// readAheadDepth frames ahead, reusing the same read ring the synchronous
// path uses. RecvFrame transparently consumes from the pipeline; byte and
// stats accounting stay at consume time, so totals match an unpipelined
// session at every step. The first read error is delivered in order and ends
// the pipeline. Idempotent; a no-op on an already failed endpoint.
//
// The reader goroutine blocks in conn reads; closing the connection (which
// every session owner does) is what unblocks and retires it. Call
// StopReadAhead before the endpoint is abandoned so a frame the goroutine
// already holds is discarded rather than waiting for a consumer.
func (e *Endpoint) StartReadAhead() {
	if e.ra != nil || e.err != nil {
		return
	}
	ch := make(chan raFrame, readAheadDepth)
	stop := make(chan struct{})
	e.ra, e.raStop = ch, stop
	go func() {
		defer close(ch)
		for {
			label, payload, n, err := e.readOne()
			select {
			case ch <- raFrame{label: label, payload: payload, n: n, err: err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// StopReadAhead signals the reader goroutine to discard any undelivered
// frame and exit; it does not wait (a goroutine blocked in a conn read exits
// when the owner closes the connection). Safe to call when read-ahead was
// never started. The endpoint must not be used for further receives after
// stopping.
func (e *Endpoint) StopReadAhead() {
	if e.raStop != nil {
		close(e.raStop)
		e.raStop = nil
	}
}

// RecvFrame reads the peer's next frame, recording protocol frames in the
// stats mirror. The returned payload is backed by the endpoint's read ring:
// it stays valid for at least three subsequent receives, then its slot is
// reused — retain a copy to hold it longer.
func (e *Endpoint) RecvFrame() (label string, payload []byte, err error) {
	if e.err != nil {
		return "", nil, e.err
	}
	var n int
	if e.ra != nil {
		f, ok := <-e.ra
		if !ok {
			// Reader gone without delivering an error: only possible after
			// StopReadAhead, i.e. a receive on an abandoned endpoint.
			return "", nil, e.fail(io.ErrUnexpectedEOF)
		}
		label, payload, n, err = f.label, f.payload, f.n, f.err
	} else {
		label, payload, n, err = e.readOne()
	}
	e.bytesIn.Add(int64(n))
	if err != nil {
		return "", nil, e.fail(err)
	}
	if !transport.IsControl(label) {
		e.rec.Record(e.remote(), label, len(payload))
	}
	return label, payload, nil
}

// RecvExpect reads the peer's next frame and requires the given label.
func (e *Endpoint) RecvExpect(label string) ([]byte, error) {
	got, payload, err := e.RecvFrame()
	if err != nil {
		return nil, err
	}
	if got != label {
		return nil, e.fail(fmt.Errorf("wire: expected frame %q, got %q", label, got))
	}
	return payload, nil
}

// Send implements transport.Channel. from == Local() transmits payload;
// any other role receives the peer's next frame under the given label (pass
// payload == nil — the remote party's bytes come off the socket, not from
// this process).
func (e *Endpoint) Send(from transport.Role, label string, payload []byte) []byte {
	if from == e.local {
		if e.SendFrame(label, payload) != nil {
			return nil
		}
		return payload
	}
	if payload != nil {
		e.fail(fmt.Errorf("wire: Send(%v, %q) with non-nil payload on a %v endpoint", from, label, e.local))
		return nil
	}
	body, err := e.RecvExpect(label)
	if err != nil {
		return nil
	}
	return body
}

// Stats implements transport.Channel: the protocol-frame traffic, matching
// the in-process Session accounting frame-for-frame.
func (e *Endpoint) Stats() transport.Stats { return e.rec.Stats() }

// Rounds implements transport.Channel.
func (e *Endpoint) Rounds() int { return e.rec.Rounds() }

// Messages exposes the recorded protocol frames (label/size/sender), for
// overhead audits and logs.
func (e *Endpoint) Messages() []transport.Msg { return e.rec.Messages() }

var _ transport.Channel = (*Endpoint)(nil)

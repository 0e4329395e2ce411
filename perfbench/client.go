package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"raptrack/internal/attest"
	"raptrack/internal/remote"
)

// outcome is what one device session observed. It holds no pointers
// into per-session data, so a run's outcome store keeps a constant heap.
type outcome struct {
	index    int  // plan index
	hijacked bool // the session came from a compromised device
	streamed bool
	verdict  bool // a VRDT frame arrived
	ok       bool // ... and it accepted
	healed   bool // a HEAL frame arrived
	busy     int  // BUSY frames received across attempts
	attempts int
	wire     int // device -> gateway bytes (last attempt)
	err      error

	latency time.Duration // HELO write -> VRDT read (last attempt)
	detect  time.Duration // hijacked SLICE write -> HEAL read (streaming)
	done    time.Time     // when the verdict was read
}

// countingWriter counts the bytes a device writes.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// device drives sessions against the gateway with the generator's
// evidence: batch (RPRT frames) or streamed (SLICE frames with the
// running slice tag, acknowledging HEAL directives).
type device struct {
	gen      *generator
	streamed bool
	tr       *tracer // nil: untraced
}

// maxAttempts is the retry budget for BUSY sheds; a session still shed
// after it counts as failed.
const maxAttempts = 4

// run attests one planned session, dialing a fresh connection per
// attempt like a device would.
func (d *device) run(spec sessionSpec, dial func() (net.Conn, error)) outcome {
	o := outcome{index: spec.index, hijacked: spec.hijack != nil, streamed: d.streamed}
	for o.attempts < maxAttempts {
		o.attempts++
		conn, err := dial()
		if err != nil {
			o.err = fmt.Errorf("dial: %w", err)
			return o
		}
		var busy *remote.BusyError
		err = d.session(conn, spec, &o)
		conn.Close()
		if errors.As(err, &busy) {
			o.busy++
			time.Sleep(remote.ClampBusyHint(busy.RetryAfter) + time.Millisecond)
			continue
		}
		o.err = err
		return o
	}
	o.err = errors.New("retry budget exhausted on BUSY")
	return o
}

func (d *device) session(conn net.Conn, spec sessionSpec, o *outcome) error {
	id := d.tr.begin()
	root := d.tr.start(id, "session", 0)
	defer d.tr.end(root)

	cw := &countingWriter{w: conn}
	start := time.Now()
	sp := d.tr.start(id, "device.handshake", root)
	if err := remote.WriteFrame(cw, remote.FrameHello, remote.EncodeHelloID(spec.app, spec.device)); err != nil {
		return err
	}
	typ, payload, err := remote.ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("reading challenge: %w", err)
	}
	var dict []byte
	if typ == remote.FrameDict {
		dict = payload
		if typ, payload, err = remote.ReadFrame(conn); err != nil {
			return fmt.Errorf("reading challenge: %w", err)
		}
	}
	d.tr.end(sp)
	switch typ {
	case remote.FrameChal:
	case remote.FrameBusy:
		ra, _ := remote.ParseBusy(payload)
		return &remote.BusyError{RetryAfter: ra}
	case remote.FrameFail:
		return fmt.Errorf("gateway failed session: %s", payload)
	default:
		return fmt.Errorf("expected challenge, got frame type %d", typ)
	}
	chal, err := attest.DecodeChallenge(payload)
	if err != nil {
		return err
	}
	sp = d.tr.start(id, "device.sign", root)
	tpl, err := d.gen.template(spec.app, dict)
	if err != nil {
		return err
	}
	reports, edited, err := tpl.instantiate(d.gen.specs[spec.app], chal.Nonce, spec.hijack, d.streamed)
	d.tr.end(sp)
	if err != nil {
		return err
	}
	if d.streamed {
		err = d.stream(conn, cw, chal, reports, edited, o, id, root)
	} else {
		err = d.batch(conn, cw, reports, o, id, root)
	}
	if err != nil {
		return err
	}
	o.done = time.Now()
	o.latency = o.done.Sub(start)
	o.wire = cw.n
	return nil
}

func (d *device) batch(conn net.Conn, cw *countingWriter, reports []*attest.Report, o *outcome, id uint64, root int) error {
	sp := d.tr.start(id, "device.evidence", root)
	for _, r := range reports {
		if err := remote.WriteFrame(cw, remote.FrameRprt, r.Encode()); err != nil {
			return err
		}
	}
	d.tr.end(sp)
	sp = d.tr.start(id, "device.verdict_wait", root)
	defer d.tr.end(sp)
	typ, payload, err := remote.ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("reading verdict: %w", err)
	}
	return o.takeVerdict(typ, payload)
}

func (o *outcome) takeVerdict(typ byte, payload []byte) error {
	switch typ {
	case remote.FrameVerdict:
		gv, err := remote.DecodeVerdict(payload)
		if err != nil {
			return err
		}
		o.verdict, o.ok = true, gv.OK
		return nil
	case remote.FrameFail:
		return fmt.Errorf("gateway failed session: %s", payload)
	default:
		return fmt.Errorf("expected verdict, got frame type %d", typ)
	}
}

// stream sends the chain as SLICE frames while a reader acknowledges HEAL
// directives and waits for the verdict, as a prover whose run keeps
// executing while the gateway judges earlier slices.
func (d *device) stream(conn net.Conn, cw *countingWriter, chal attest.Challenge, reports []*attest.Report, edited int, o *outcome, id uint64, root int) error {
	var (
		wmu      sync.Mutex
		hijackAt time.Time
		healAt   time.Time
	)
	done := make(chan error, 1)
	go func() {
		for {
			typ, payload, err := remote.ReadFrame(conn)
			if err != nil {
				done <- fmt.Errorf("reading verdict: %w", err)
				return
			}
			if typ != remote.FrameHeal {
				done <- o.takeVerdict(typ, payload)
				return
			}
			h, err := remote.DecodeHeal(payload)
			if err != nil {
				done <- err
				return
			}
			wmu.Lock()
			if healAt.IsZero() {
				healAt = time.Now()
			}
			err = remote.WriteFrame(cw, remote.FrameHealAck, remote.EncodeHealAck(h))
			wmu.Unlock()
			if err != nil {
				done <- fmt.Errorf("acknowledging heal: %w", err)
				return
			}
		}
	}()
	sp := d.tr.start(id, "device.evidence", root)
	tag := remote.SliceTagInit(chal.Nonce)
	var mark uint32
	var werr error
	for i, r := range reports {
		tag = remote.SliceTagNext(tag, r.Auth)
		mark += uint32(len(r.CFLog))
		frame := remote.EncodeSlice(remote.Slice{Seq: uint32(i), Mark: mark, Final: r.Final, Tag: tag, Report: r.Encode()})
		wmu.Lock()
		if i == edited {
			hijackAt = time.Now()
		}
		werr = remote.WriteFrame(cw, remote.FrameSlice, frame)
		wmu.Unlock()
		if werr != nil {
			break
		}
	}
	d.tr.end(sp)
	sp = d.tr.start(id, "device.verdict_wait", root)
	err := <-done
	d.tr.end(sp)
	if err == nil {
		err = werr
	}
	wmu.Lock()
	defer wmu.Unlock()
	if !healAt.IsZero() {
		o.healed = true
		if !hijackAt.IsZero() {
			o.detect = healAt.Sub(hijackAt)
		}
	}
	return err
}

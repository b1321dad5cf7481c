package netfault

import (
	"bytes"
	"net"
	"sync"
	"time"
)

// Conn wraps a net.Conn and threads its reads and writes through an
// Injector. In a Proxy the wrapped side is the target (server) side, so
// Read faults hit the response direction and Write faults the request
// direction — matching the Op taxonomy.
type Conn struct {
	inner net.Conn
	inj   *Injector

	mu sync.Mutex
	// done closes when the conn closes, releasing partition waiters.
	done   chan struct{}
	closed bool
	// drip is the slow-loris per-op pause (0 = full speed).
	drip   time.Duration
	last   int        // the direction data moved in last
	frames [2]framing // reads, then writes
}

// framing follows one direction's byte stream, so flips land in bodies.
type framing struct {
	http   bool   // the message began with a method or "HTTP/"
	inBody bool   // the current message's header block has passed
	tail   []byte // the last bytes seen, to find a terminator across ops
}

// WrapConn wraps inner so its I/O goes through inj.
func WrapConn(inner net.Conn, inj *Injector) *Conn {
	return &Conn{inner: inner, inj: inj, done: make(chan struct{})}
}

// fault is the part of a read or write that runs before its I/O: it
// waits out a partition blocking op, counts op, applies the fault
// scheduled there, and pauses a trickling stream. flip reports a
// scheduled KindFlip, trickle a stream in slow-loris mode. A non-nil
// error ends the operation without I/O.
func (c *Conn) fault(op Op) (flip, trickle bool, err error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed || !c.inj.awaitHealed(op, c.done) {
		return false, false, net.ErrClosed
	}
	if p, ok := c.inj.step(op); ok {
		switch p.Kind {
		case KindLatency:
			if !sleepOr(durOr(p.Dur, defaultLatency), c.done) {
				return false, false, net.ErrClosed
			}
		case KindReset:
			_ = c.Close()
			return false, false, ErrReset
		case KindPartition, KindPartitionOneWay:
			// step armed the partition; this op waits it out like any other.
			if !c.inj.awaitHealed(op, c.done) {
				return false, false, net.ErrClosed
			}
		case KindFlip:
			flip = true
		case KindSlowLoris:
			c.mu.Lock()
			c.drip = durOr(p.Dur, defaultDrip)
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	d := c.drip
	c.mu.Unlock()
	if d > 0 && !sleepOr(d, c.done) {
		return false, false, net.ErrClosed
	}
	return flip, d > 0, nil
}

// Read implements net.Conn. A partition (full or one-way) blocks it
// until heal; a flip corrupts the bytes it delivers.
func (c *Conn) Read(b []byte) (int, error) {
	flip, trickle, err := c.fault(OpRead)
	if err != nil {
		return 0, err
	}
	if trickle && len(b) > 16 {
		b = b[:16]
	}
	n, err := c.inner.Read(b)
	if i := c.flipAt(0, b[:n], flip); i >= 0 {
		b[i] ^= 0x01
	}
	return n, err
}

// Write implements net.Conn. Only a full partition blocks writes (a
// one-way partition lets requests through — that asymmetry is its
// point).
func (c *Conn) Write(b []byte) (int, error) {
	flip, _, err := c.fault(OpWrite)
	if err != nil {
		return 0, err
	}
	if i := c.flipAt(1, b, flip); i >= 0 {
		b = append([]byte(nil), b...)
		b[i] ^= 0x01
	}
	return c.inner.Write(b)
}

// flipAt follows the framing of b, the next data moving in direction d
// (0 reads, 1 writes), and returns the index of the digit a flip
// changes in it, or -1; flip says one was scheduled on this op.
// HTTP/1.1 does not pipeline, so data in the other direction from the
// last starts a new message. A flip takes the last digit of the first
// digit run in the message's body (anywhere, in a stream that is not
// HTTP), so it never makes a leading zero; data with no such digit
// passes it on to the link's next data in that direction.
func (c *Conn) flipAt(d int, b []byte, flip bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := &c.frames[d]
	if c.last != d {
		c.last = d
		f.inBody, f.tail = false, nil
	}
	from := 0
	if !f.inBody {
		if f.tail == nil && len(b) > 0 { // the message's first bytes
			f.http = 'A' <= b[0] && b[0] <= 'Z'
		}
		seen := append(f.tail, b...)
		if h := bytes.Index(seen, []byte("\r\n\r\n")); h >= 0 {
			f.inBody, from = true, max(h+4-len(f.tail), 0)
		} else if f.http {
			from = len(b)
		}
		f.tail = append([]byte(nil), seen[max(len(seen)-3, 0):]...)
	}
	c.inj.mu.Lock()
	defer c.inj.mu.Unlock()
	pending := &c.inj.pendingFlips[d]
	if flip {
		*pending++
	}
	if *pending == 0 {
		return -1
	}
	i := lastDigitOfRun(b, from)
	if i >= 0 {
		*pending--
		if f.http {
			c.inj.bodyFlips.Add(1)
		}
	}
	return i
}

// Close implements net.Conn; it releases any partition waiters.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	return c.inner.Close()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

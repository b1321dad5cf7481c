package netfault

import (
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// Proxy is a TCP proxy that forwards every connection to a fixed target
// through an Injector: the way to put an unmodified process (a real
// rvpd worker) behind a hostile link. The target-side connection is a
// wrapped Conn, so Read faults hit the response direction and Write
// faults the request direction; accepts themselves count as OpAccept.
// A fault planned on an accept applies to that connection: a reset
// drops it, latency delays serving it, slow-loris starts it trickling,
// a partition blackholes the link and a flip waits for the next
// response body.
type Proxy struct {
	inj    *Injector
	target string
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{} // closes with the proxy, ending accept delays
	wg     sync.WaitGroup
}

// NewProxy listens on an ephemeral loopback port and forwards to target
// (a host:port, or an http:// URL of one) through inj.
func NewProxy(target string, inj *Injector) (*Proxy, error) {
	target = strings.TrimPrefix(target, "http://")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{inj: inj, target: target, ln: ln, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's bound host:port.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL (what a coordinator registers as the
// worker URL).
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Close stops accepting, tears down every live connection, and waits
// for the forwarding goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	close(p.done)
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
	return err
}

// track remembers a live conn so Close can tear it down; false means
// the proxy is already closing.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		var delay, drip time.Duration
		if plan, ok := p.inj.step(OpAccept); ok {
			switch plan.Kind {
			case KindReset:
				_ = client.Close()
				continue
			case KindLatency:
				delay = durOr(plan.Dur, defaultLatency)
			case KindSlowLoris:
				drip = durOr(plan.Dur, defaultDrip)
			}
		}
		p.wg.Add(1)
		go p.serve(client, delay, drip)
	}
}

// serve forwards one client connection to the target through a faulted
// conn, after waiting delay, with the conn trickling at drip from its
// first op when drip is set. A dial failure (the target was SIGKILLed,
// say) just drops the client — exactly what a dead backend looks like.
func (p *Proxy) serve(client net.Conn, delay, drip time.Duration) {
	defer p.wg.Done()
	if !p.track(client) {
		_ = client.Close()
		return
	}
	defer func() { p.untrack(client); _ = client.Close() }()
	if !sleepOr(delay, p.done) {
		return
	}

	raw, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	target := WrapConn(raw, p.inj)
	target.drip = drip
	if !p.track(target) {
		_ = target.Close()
		return
	}
	defer func() { p.untrack(target); _ = target.Close() }()

	var inner sync.WaitGroup
	inner.Add(1)
	go func() {
		defer inner.Done()
		// Requests: client -> target (faults on target.Write).
		_, _ = io.Copy(target, client)
		// EOF from the client ends the request stream; closing the
		// target unblocks its reader.
		_ = target.Close()
	}()
	// Responses: target -> client (faults on target.Read).
	_, _ = io.Copy(client, target)
	_ = client.Close()
	inner.Wait()
}

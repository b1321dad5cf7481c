// Package netfault is the deterministic network fault seam: the
// network-side twin of internal/vfs. An Injector counts network
// operations (accepted connections, connection reads and writes) and
// applies scheduled faults at exact op indices, so a failing run
// replays from nothing but its schedule — and a schedule is derivable
// from a single printed seed.
//
// One wrapper threads the injector into real traffic: Conn wraps a
// net.Conn, and Proxy forwards TCP connections to a fixed target
// through a Conn, so an unmodified process (a real rvpd worker) can sit
// behind a hostile link. A Conn on the client side of an http.Transport
// (via its DialContext) faults one client's traffic the same way.
//
// The fault taxonomy covers what real networks do to protocols: added
// latency, connection reset, full and one-way partition, payload
// bit-flip (silent corruption) and slow-loris trickle reads.
//
// Determinism contract: the schedule — which op index suffers which
// fault — is exactly reproducible from a seed. Under concurrent
// connections the assignment of op indices to specific packets depends
// on goroutine interleaving, so byte-level outcomes may vary run to
// run; what tests assert is that the system converges to the correct
// result under any interleaving of the scheduled faults.
package netfault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Op names one network operation class the injector can target.
type Op string

const (
	// OpAccept is one connection accepted by a Proxy.
	OpAccept Op = "accept"
	// OpRead is one Read on a wrapped connection (the response direction
	// in a Proxy).
	OpRead Op = "read"
	// OpWrite is one Write on a wrapped connection (the request
	// direction in a Proxy).
	OpWrite Op = "write"
)

// ErrInjected marks every injected failure so tests can tell a planted
// fault from a real one.
var ErrInjected = errors.New("netfault: injected fault")

// ErrReset is the injected connection reset. It wraps both ErrInjected
// and ECONNRESET, so code matching either classification sees it.
var ErrReset = fmt.Errorf("%w: %w", ErrInjected, syscall.ECONNRESET)

// Kind is what an injection does to its operation.
type Kind int

const (
	// KindLatency delays the operation by Dur, then lets it proceed. On
	// an accept, a Proxy waits Dur before serving the connection.
	KindLatency Kind = iota
	// KindReset kills the connection: the operation fails with ErrReset.
	// On a read, the request written before it has already been
	// delivered — the worst case for a retrying client, whose retry must
	// rewind the request body.
	KindReset
	// KindPartition blackholes the link in both directions for Dur:
	// operations block (delivery resumes after heal, like TCP
	// retransmission) instead of failing fast.
	KindPartition
	// KindPartitionOneWay blackholes only the response direction for
	// Dur: requests keep reaching the far side, acknowledgements and
	// responses do not — the asymmetric-partition case that breaks naive
	// lease protocols.
	KindPartitionOneWay
	// KindFlip delivers the payload with one bit flipped and reports
	// success — silent corruption in flight. The flip targets the low
	// bit of an ASCII digit in an HTTP body (see Conn.flipAt), so the
	// request and status lines survive, a JSON payload stays parseable,
	// and the corruption reaches the decoded values instead of dying in
	// the router or the decoder. A flip on an accept, which moves no
	// bytes, corrupts the link's next response body.
	KindFlip
	// KindSlowLoris switches the stream to trickle mode: every
	// subsequent read/write on it waits Dur first, and reads return at
	// most 16 bytes. On an accept, the connection a Proxy serves
	// trickles from its first read or write.
	KindSlowLoris
)

// String names the kind for schedule printouts.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindReset:
		return "reset"
	case KindPartition:
		return "partition"
	case KindPartitionOneWay:
		return "partition1w"
	case KindFlip:
		return "flip"
	case KindSlowLoris:
		return "slowloris"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Plan is one scheduled injection.
type Plan struct {
	// At is the 0-based index (over counted operations) to inject at.
	At int64
	// Kind is what happens there.
	Kind Kind
	// Dur parameterizes time-shaped faults: the added latency, the
	// partition duration, the slow-loris per-read pause. Zero takes a
	// kind-appropriate default.
	Dur time.Duration
}

func (p Plan) String() string {
	s := fmt.Sprintf("@%d %s", p.At, p.Kind)
	if p.Dur > 0 {
		s += fmt.Sprintf(" dur=%v", p.Dur)
	}
	return s
}

// FormatPlans renders a schedule compactly for test logs — the
// reproduction recipe a failing chaos run prints.
func FormatPlans(plans []Plan) string {
	parts := make([]string, len(plans))
	for i, p := range plans {
		parts[i] = p.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Injector counts operations and applies the fault schedule. One
// injector models one link; the conns sharing it share its op counter
// and partition state.
type Injector struct {
	mu    sync.Mutex
	n     int64
	plans map[int64]Plan
	ops   []Op

	// Partition state: while now < partUntil the link is blackholed
	// (both directions, or responses only with partOneWay).
	partUntil  time.Time
	partOneWay bool

	// pendingFlips counts flips waiting for a body digit (reads, writes).
	pendingFlips [2]int
	bodyFlips    atomic.Int64
}

// NewInjector returns an injector with an empty schedule.
func NewInjector() *Injector {
	return &Injector{plans: map[int64]Plan{}}
}

// FailAt schedules plan p (replacing any previous plan at the same
// index).
func (inj *Injector) FailAt(p Plan) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.plans[p.At] = p
}

// Apply schedules every plan in ps.
func (inj *Injector) Apply(ps ...Plan) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, p := range ps {
		inj.plans[p.At] = p
	}
}

// Ops returns the count of operations observed so far.
func (inj *Injector) Ops() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.n
}

// Trace returns the op kinds counted so far, in order — the audit trail
// a failing test prints next to its schedule.
func (inj *Injector) Trace() []Op {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Op(nil), inj.ops...)
}

// BodyFlips returns how many flips changed a digit in an HTTP body. The
// plans that fired are those before Ops(); Trace() names their ops.
func (inj *Injector) BodyFlips() int64 { return inj.bodyFlips.Load() }

// step counts one operation and returns the plan scheduled for it, if
// any. Partition plans also arm the injector's partition state here, so
// the triggering op and every later op observe the blackhole.
func (inj *Injector) step(op Op) (Plan, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	i := inj.n
	inj.n++
	inj.ops = append(inj.ops, op)
	p, ok := inj.plans[i]
	if !ok {
		return Plan{}, false
	}
	switch p.Kind {
	case KindPartition, KindPartitionOneWay:
		until := time.Now().Add(durOr(p.Dur, 200*time.Millisecond))
		if until.After(inj.partUntil) {
			inj.partUntil = until
			inj.partOneWay = p.Kind == KindPartitionOneWay
		}
	case KindFlip:
		if op == OpAccept {
			inj.pendingFlips[0]++
		}
	}
	return p, true
}

// partitionRemaining reports how long the partition (affecting the
// given direction) still holds; zero means the link is clear. Reads
// (the response direction) are blocked by both partition kinds; writes
// only by the full partition.
func (inj *Injector) partitionRemaining(op Op) time.Duration {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	rem := time.Until(inj.partUntil)
	if rem <= 0 {
		return 0
	}
	if inj.partOneWay && op != OpRead {
		return 0
	}
	return rem
}

// awaitHealed blocks until the partition affecting op clears or done is
// closed/signalled; it reports false when done fired first. Delivery
// after heal models TCP retransmission surviving a short partition.
func (inj *Injector) awaitHealed(op Op, done <-chan struct{}) bool {
	for {
		rem := inj.partitionRemaining(op)
		if rem <= 0 {
			return true
		}
		// Wake early to re-check: a longer partition may have been armed
		// meanwhile, or done may fire.
		wait := rem
		if wait > 20*time.Millisecond {
			wait = 20 * time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-done:
			t.Stop()
			return false
		case <-t.C:
		}
	}
}

// Schedule derives a deterministic fault schedule from a seed: n plans
// spread over the first span counted ops, kinds drawn from kinds,
// durations in (0, maxDur]. Equal seeds give equal schedules — the
// reproduction contract chaos tests print.
func Schedule(seed int64, span int64, n int, kinds []Kind, maxDur time.Duration) []Plan {
	if span <= 0 || n <= 0 || len(kinds) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	used := make(map[int64]bool, n)
	plans := make([]Plan, 0, n)
	for len(plans) < n && int64(len(used)) < span {
		at := rng.Int63n(span)
		if used[at] {
			continue
		}
		used[at] = true
		k := kinds[rng.Intn(len(kinds))]
		p := Plan{At: at, Kind: k}
		if maxDur > 0 {
			p.Dur = time.Duration(rng.Int63n(int64(maxDur))) + 1
		}
		plans = append(plans, p)
	}
	// Stable order for printing; the map application is order-free.
	for i := 1; i < len(plans); i++ {
		for j := i; j > 0 && plans[j].At < plans[j-1].At; j-- {
			plans[j], plans[j-1] = plans[j-1], plans[j]
		}
	}
	return plans
}

// lastDigitOfRun returns the index of the last digit of the first run
// of ASCII digits in b at or after from, or -1 when there is none.
func lastDigitOfRun(b []byte, from int) int {
	isDigit := func(c byte) bool { return '0' <= c && c <= '9' }
	i := from
	for i < len(b) && !isDigit(b[i]) {
		i++
	}
	if i == len(b) {
		return -1
	}
	for i+1 < len(b) && isDigit(b[i+1]) {
		i++
	}
	return i
}

// The Plan.Dur a zero duration takes for latency and slow-loris.
const (
	defaultLatency = 50 * time.Millisecond
	defaultDrip    = 10 * time.Millisecond
)

// durOr returns d, or def when d is not positive: a zero Plan.Dur takes
// its kind's default.
func durOr(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// sleepOr sleeps d unless done fires first; it reports false when done
// fired.
func sleepOr(d time.Duration, done <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}

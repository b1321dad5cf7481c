package pipeline

import (
	"math/rand"
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/workloads"
)

// count reads the number book k holds at cycle t: zero when the slot
// carries another cycle's stamp.
func (b *issueBook) count(t int64, k int) int {
	s := b.slot[t&int64(len(b.slot)-1)]
	if s.stamp != t {
		return 0
	}
	return int(s.n[k])
}

// TestBooksMatchReference drives every book with random booking streams
// shaped like the run loop's and checks each answer against a plain map
// from cycle to count.
func TestBooksMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 20; round++ {
		limit := 1 + rng.Intn(8)
		seqBookStream(t, rng, limit)
		issueStream(t, rng, limit)
	}
}

// TestIssueBooksGrow stretches memory latencies until the issue books
// grow inside the run loop, which no figure cell does. The exp
// package's fingerprint pins this run's Stats (issue_growth/li/rvp).
func TestIssueBooksGrow(t *testing.T) {
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	sim := MustNew(BaselineConfig())
	sim.SetFaults(faultinject.New(faultinject.Config{MemEvery: 1000, MemExtra: 3000}))
	if _, err := sim.Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), 40_000); err != nil {
		t.Fatal(err)
	}
	if n := len(sim.cur.issue.slot); n <= issueRingStart {
		t.Errorf("issue books never grew: %d slots", n)
	}
}

// seqBookStream books a monotone stream, as dispatch, commit and the
// predict ports do, through bookFrom and tryBook.
func seqBookStream(t *testing.T, rng *rand.Rand, limit int) {
	t.Helper()
	b := seqBook{limit: uint64(limit)}
	ref := map[int64]int{}
	var at int64
	for i := 0; i < 2000; i++ {
		at += int64(rng.Intn(3))
		if rng.Intn(50) == 0 {
			at += int64(rng.Intn(1000))
		}
		if rng.Intn(2) == 0 {
			want := at
			for ref[want] >= limit {
				want++
			}
			ref[want]++
			if got := b.bookFrom(at); got != want {
				t.Fatalf("limit %d, op %d: bookFrom(%d) = %d, want %d", limit, i, at, got, want)
			}
			at = want
		} else {
			want := ref[at] < limit
			if want {
				ref[at]++
			}
			if got := b.tryBook(at); got != want {
				t.Fatalf("limit %d, op %d: tryBook(%d) = %v, want %v", limit, i, at, got, want)
			}
		}
	}
	for c, n := range ref {
		if c > b.last || (c == b.last && n != int(b.n)) {
			t.Fatalf("limit %d: cycle %d booked %d, book holds %d at %d", limit, c, n, b.n, b.last)
		}
	}
}

// issueStream books an out-of-order stream the way the run loop does:
// each booking searches from above a rising dispatch floor for a cycle
// free in the issue book, one unit book and, for memory operations, the
// load/store book; the ring starts at 4 slots and grows, with spreads up
// to 100 times that. At every cycle the search passes, all four probe
// shapes (int or FP unit, with or without the load/store book) are
// checked against per-book map references, so a count kept in the wrong
// book or under the wrong cycle shows even when the search agrees.
func issueStream(t *testing.T, rng *rand.Rand, limit int) {
	t.Helper()
	const start = 4
	limits := [numBooks]int{bookIssue: limit, bookInt: 1 + rng.Intn(6), bookLS: 1 + rng.Intn(4), bookFP: 1 + rng.Intn(3)}
	b := &issueBook{slot: make([]issueSlot, start)}
	for k, l := range limits {
		b.limit[k] = uint16(l)
	}
	refs := [numBooks]map[int64]int{{}, {}, {}, {}}
	free := func(k int, t int64) bool { return refs[k][t] < limits[k] }

	var dispatch int64
	for i := 0; i < 3000; i++ {
		dispatch += int64(rng.Intn(2))
		t0 := dispatch + 1
		switch rng.Intn(10) {
		case 0:
			t0 += int64(rng.Intn(100 * start))
		case 1, 2:
			t0 += int64(rng.Intn(20))
		}
		unit, isMem := bookInt, false
		switch rng.Intn(3) {
		case 0:
			unit = bookFP
		case 1:
			isMem = true
		}

		want := t0
		for !free(bookIssue, want) || !free(unit, want) || (isMem && !free(bookLS, want)) {
			want++
		}
		got := t0
		for {
			for _, u := range []int{bookInt, bookFP} {
				for _, mem := range []bool{false, true} {
					ref := free(bookIssue, got) && free(u, got) && (!mem || free(bookLS, got))
					if avail := b.avail(got, u, mem); avail != ref {
						t.Fatalf("limits %v, op %d: avail(%d, %d, %v) = %v, reference %v", limits, i, got, u, mem, avail, ref)
					}
				}
			}
			if b.avail(got, unit, isMem) {
				break
			}
			got++
		}
		if got != want {
			t.Fatalf("limits %v, op %d: issue search from %d found %d, want %d", limits, i, t0, got, want)
		}
		if got-dispatch >= int64(len(b.slot)) {
			b.grow(dispatch, got)
		}
		b.book(got, unit, isMem)
		refs[bookIssue][got]++
		refs[unit][got]++
		if isMem {
			refs[bookLS][got]++
		}
	}
	if len(b.slot) == start {
		t.Fatalf("limits %v: the ring never grew", limits)
	}
	for k := range refs {
		for cyc, n := range refs[k] {
			if cyc >= dispatch && b.count(cyc, k) != n {
				t.Fatalf("limits %v: book %d holds %d at live cycle %d, reference %d", limits, k, b.count(cyc, k), cyc, n)
			}
		}
	}
}

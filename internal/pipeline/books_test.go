package pipeline

import (
	"math/rand"
	"testing"
)

// count reads the number booked at cycle t: zero when the slot carries
// another cycle's stamp.
func (c *capRing) count(t int64) int {
	e := c.ent[t&int64(len(c.ent)-1)]
	if int64(e>>capCountBits) != t {
		return 0
	}
	return int(e & capCountMask)
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
// load/store book; the books start at 4 slots and grow, with spreads up
// to 100 times that.
func issueStream(t *testing.T, rng *rand.Rand, limit int) {
	t.Helper()
	const start = 4
	r := &runState{}
	limits := [4]int{limit, 1 + rng.Intn(6), 1 + rng.Intn(4), 1 + rng.Intn(3)}
	for i, c := range r.issueBooks() {
		*c = capRing{ent: make([]uint64, start), limit: uint64(limits[i])}
	}
	books := r.issueBooks()
	refs := [4]map[int64]int{{}, {}, {}, {}}
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
		unit, isMem := 1, false // the int book; 2 is load/store, 3 fp
		switch rng.Intn(3) {
		case 0:
			unit = 3
		case 1:
			isMem = true
		}

		want := t0
		for !free(0, want) || !free(unit, want) || (isMem && !free(2, want)) {
			want++
		}
		got := t0
		for {
			for k := range books {
				if avail, ref := books[k].avail(got), free(k, got); avail != ref {
					t.Fatalf("limits %v, op %d: book %d avail(%d) = %v, reference %v", limits, i, k, got, avail, ref)
				}
			}
			if r.issueCap.avail(got) && books[unit].avail(got) && (!isMem || r.lsCap.avail(got)) {
				break
			}
			got++
		}
		if got != want {
			t.Fatalf("limits %v, op %d: issue search from %d found %d, want %d", limits, i, t0, got, want)
		}
		if got-dispatch >= int64(len(r.issueCap.ent)) {
			r.growIssue(dispatch, got)
		}
		for _, k := range []int{0, unit} {
			books[k].book(got)
			refs[k][got]++
		}
		if isMem {
			r.lsCap.book(got)
			refs[2][got]++
		}
	}
	if len(r.issueCap.ent) == start {
		t.Fatalf("limits %v: the books never grew", limits)
	}
	for k, c := range books {
		if len(c.ent) != len(r.issueCap.ent) {
			t.Fatalf("book %d has %d slots, the issue book %d", k, len(c.ent), len(r.issueCap.ent))
		}
		for cyc, n := range refs[k] {
			if cyc >= dispatch && c.count(cyc) != n {
				t.Fatalf("limits %v: book %d holds %d at live cycle %d, reference %d", limits, k, c.count(cyc), cyc, n)
			}
		}
	}
}

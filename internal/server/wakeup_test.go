package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

// statusWaitWindow is the wait the wake-up tests ask for; an answer
// that takes a good part of it slept through a wake-up.
const statusWaitWindow = 5 * time.Second

// asyncStatus GETs url on its own goroutine and delivers how long the
// answer took (or the window, on a request error).
func asyncStatus(t *testing.T, url string) <-chan time.Duration {
	took := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("GET %s: %v", url, err)
			took <- statusWaitWindow
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", url, resp.StatusCode)
		}
		took <- time.Since(start)
	}()
	return took
}

// TestStatusWaitWakeupOrder pins the order a status wait reads in: the
// job feed's wake channel first, then the store record. Each wait, with
// and without after, must answer well before its window ends.
//
// The first half makes the order decisive. The test holds the feed's
// lock, so a wait stalls where it takes the channel, and meanwhile
// appends the terminal record with the store's wake-up detached: the
// append and its wake-up have both happened between the wait's two
// reads. A wait that took the channel first now reads the terminal
// record and answers. One that read the record first holds the queued
// record and a channel nothing will close, and sleeps out its window.
//
// The second half races real terminal appends and publishes against
// fresh waits, with nothing held.
func TestStatusWaitWakeupOrder(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for _, q := range []string{"", "&after=1"} {
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("jorder%d%s", i, q)
			rec := parkJob(t, srv, id)
			f := srv.tel.feed(id)
			f.publish(JobEvent{Type: EvQueued})

			f.mu.Lock()
			took := asyncStatus(t, fmt.Sprintf("%s/v1/jobs/%s?wait=%v%s", ts.URL, id, statusWaitWindow, q))
			time.Sleep(20 * time.Millisecond) // let the wait reach the feed
			notify := srv.store.notify
			srv.store.notify = nil
			rec.State = StateSucceeded
			err := srv.store.Append(rec)
			srv.store.notify = notify
			f.mu.Unlock()
			if err != nil {
				t.Fatalf("store append: %v", err)
			}
			if d := <-took; d > statusWaitWindow/2 {
				t.Fatalf("wait%s answered after %v: it read the record before taking the wake channel", q, d)
			}
			f.publish(JobEvent{Type: EvDone})
		}
	}

	for _, q := range []string{"", "&after=1"} {
		for i := 0; i < 50; i++ {
			id := fmt.Sprintf("jrace%d%s", i, q)
			rec := parkJob(t, srv, id)
			srv.tel.feed(id).publish(JobEvent{Type: EvQueued})
			took := asyncStatus(t, fmt.Sprintf("%s/v1/jobs/%s?wait=%v%s", ts.URL, id, statusWaitWindow, q))
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			rec.State = StateSucceeded
			if err := srv.store.Append(rec); err != nil {
				t.Fatalf("store append: %v", err)
			}
			srv.tel.feed(id).publish(JobEvent{Type: EvDone})
			if d := <-took; d > statusWaitWindow/2 {
				t.Fatalf("wait%s raced the terminal append and answered after %v", q, d)
			}
		}
	}
}

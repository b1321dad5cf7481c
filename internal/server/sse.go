package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// sseKeepalive is the idle heartbeat cadence on event streams: a
// comment frame proves the connection is alive through proxies that
// time out silent responses. Variable for tests.
var sseKeepalive = 15 * time.Second

// handleEvents streams a job's live events as Server-Sent Events:
//
//	id: <seq>
//	event: <type>
//	data: <JobEvent JSON>
//
// A Last-Event-ID header (or ?after= query, for curl) resumes after
// that sequence number: events still in the job's ring are replayed
// first, then the stream goes live. The stream ends after the terminal
// done/failed event. For a job that finished before the daemon
// restarted (no feed in memory), a single synthetic terminal event is
// served from the job record, so "watch" works on any known job.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Get(id)
	if !ok {
		reject(w, http.StatusNotFound, "unknown job "+id, 0)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		reject(w, http.StatusInternalServerError, "streaming unsupported by this connection", 0)
		return
	}
	after := parseLastEventID(r)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	feed, have := s.tel.lookup(id)
	if !have {
		if rec.Terminal() {
			// Completed in a previous daemon's lifetime: one synthetic
			// terminal frame tells the watcher how the story ended.
			ev := JobEvent{Seq: after + 1, Type: EvDone, TimeUS: time.Now().UnixMicro(),
				Job: id, Attempt: rec.Attempts}
			if rec.State == StateFailed {
				ev.Type = EvFailed
				if rec.Error != nil {
					ev.Error = rec.Error.Message
				}
			}
			_ = writeSSE(w, fl, ev)
			return
		}
		feed = s.tel.feed(id)
	}

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		replay, sub := feed.subscribe(after)
		for _, ev := range replay {
			if err := writeSSE(w, fl, ev); err != nil {
				if sub != nil {
					feed.unsubscribe(sub)
				}
				return
			}
			after = ev.Seq
			if terminalEvent(ev.Type) {
				if sub != nil {
					feed.unsubscribe(sub)
				}
				return
			}
		}
		if sub == nil {
			return // terminal feed, fully replayed
		}
	live:
		for {
			select {
			case ev, open := <-sub.ch:
				if !open {
					// Overflow or terminal close: resubscribe and let the
					// ring replay whatever this subscriber missed.
					break live
				}
				if err := writeSSE(w, fl, ev); err != nil {
					feed.unsubscribe(sub)
					return
				}
				after = ev.Seq
				if terminalEvent(ev.Type) {
					feed.unsubscribe(sub)
					return
				}
			case <-r.Context().Done():
				feed.unsubscribe(sub)
				return
			case <-keepalive.C:
				if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
					feed.unsubscribe(sub)
					return
				}
				fl.Flush()
			}
		}
	}
}

// parseLastEventID reads the SSE resume point: the standard
// Last-Event-ID header, with an ?after= query fallback.
func parseLastEventID(r *http.Request) int64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return 0
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// writeSSE emits one event frame and flushes it.
func writeSSE(w http.ResponseWriter, fl http.Flusher, ev JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
		return err
	}
	fl.Flush()
	return nil
}

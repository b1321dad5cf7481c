package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"rvpsim/internal/obs"
	"rvpsim/internal/server"
)

// Watch consumes a job's live Server-Sent Events stream, calling fn
// for every event until the terminal done/failed event arrives (fn is
// called for that one too), then returns the event stream's last event.
// after resumes past a known sequence number (0 from the start).
//
// Dropped connections are transparently reconnected with the standard
// Last-Event-ID header carrying the last sequence seen, so a daemon
// hiccup costs a watcher nothing the server's event ring still holds.
// Permanent HTTP errors (404 unknown job) are returned as-is.
func (c *Client) Watch(ctx context.Context, id string, after int64, fn func(server.JobEvent)) (server.JobEvent, error) {
	var last server.JobEvent
	last.Seq = after
	attempt := 0
	for {
		before := last.Seq
		ev, err := c.watchOnce(ctx, id, &last, fn)
		if err == nil {
			return ev, nil
		}
		if ctx.Err() != nil {
			return last, ctx.Err()
		}
		var he *httpError
		if errors.As(err, &he) && he.status != 0 && he.status < 500 {
			return last, err
		}
		// Capped exponential backoff with jitter between reconnects; a
		// connection that made progress (delivered events) resets the
		// schedule, so a flaky-but-live stream isn't punished like a
		// down server.
		if last.Seq > before {
			attempt = 0
		}
		delay := c.backoff.delay(attempt, c.rand)
		attempt++
		c.log.Debug("watch stream dropped; reconnecting", "job", id, "after", last.Seq, "delay", delay, "error", err)
		select {
		case <-ctx.Done():
			return last, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// watchOnce runs one SSE connection until terminal event or stream end.
// A nil error means the terminal event was seen; otherwise the caller
// decides whether to reconnect from last.Seq.
func (c *Client) watchOnce(ctx context.Context, id string, last *server.JobEvent, fn func(server.JobEvent)) (server.JobEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return *last, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if last.Seq > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprintf("%d", last.Seq))
	}
	// SSE streams outlive any fixed client timeout; strip it for this
	// request only (ctx still bounds the watch).
	hc := *c.hc
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		return *last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return *last, decodeError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() == 0 {
				continue // keepalive or id/event-only frame
			}
			var ev server.JobEvent
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				data.Reset()
				continue // tolerate frames we do not understand
			}
			data.Reset()
			*last = ev
			fn(ev)
			if ev.Type == server.EvDone || ev.Type == server.EvFailed {
				return ev, nil
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// id:/event:/comment lines; Seq inside the JSON payload is
			// authoritative, so these carry no extra information.
		}
	}
	if err := sc.Err(); err != nil {
		return *last, err
	}
	return *last, errors.New("event stream ended before the job finished")
}

// Trace fetches the daemon-side spans of a job's trace. Merge them
// with the client tracer's own spans for the cross-process picture.
func (c *Client) Trace(ctx context.Context, id string) ([]obs.Span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var spans []obs.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return nil, fmt.Errorf("decoding trace: %w", err)
	}
	return spans, nil
}

// Spans returns the client tracer's collected spans (nil without
// WithTracer).
func (c *Client) Spans() []obs.Span { return c.tracer.Spans() }

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// CoordClient talks to the sweep coordinator one rvpd hosts (the sweep
// and worker routes of Handler). It lives here rather than in
// internal/client because the coordinator itself depends on
// internal/client for worker dispatch; putting the coordinator's own
// wire client next to its wire types keeps the dependency a straight
// line (fleet -> client -> server) instead of a cycle.
type CoordClient struct {
	base string
	hc   *http.Client
}

// NewCoordClient builds a client for the coordinator at base URL.
func NewCoordClient(base string) *CoordClient {
	return &CoordClient{base: base, hc: &http.Client{Timeout: 30 * time.Second}}
}

// SubmitSweep submits the sweep spec; resubmitting the same spec joins
// the existing sweep (submission is idempotent by sweep ID).
func (c *CoordClient) SubmitSweep(ctx context.Context, spec SweepSpec) (SweepStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return SweepStatus{}, err
	}
	var st SweepStatus
	err = c.do(ctx, http.MethodPost, "/v1/sweeps", body, &st)
	return st, err
}

// Status fetches one sweep's status.
func (c *CoordClient) Status(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st)
	return st, err
}

// Wait polls the sweep until every cell is terminal. Transport errors
// are tolerated (the coordinator may be restarting; its ledger will
// bring the sweep back). poll defaults to 500ms.
func (c *CoordClient) Wait(ctx context.Context, id string, poll time.Duration) (SweepStatus, error) {
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err == nil && st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return SweepStatus{}, ctx.Err()
		case <-t.C:
		}
	}
}

// RegisterWorker registers an rvpd base URL with the coordinator.
func (c *CoordClient) RegisterWorker(ctx context.Context, url string) error {
	body, err := json.Marshal(map[string]string{"url": url})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/workers", body, nil)
}

// Sweeps lists known sweep IDs in admission order.
func (c *CoordClient) Sweeps(ctx context.Context) ([]string, error) {
	var ids []string
	err := c.do(ctx, http.MethodGet, "/v1/sweeps", nil, &ids)
	return ids, err
}

func (c *CoordClient) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return fmt.Errorf("coordinator returned %d: %s", resp.StatusCode, e.Error)
		}
		return fmt.Errorf("coordinator returned %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

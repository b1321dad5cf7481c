package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerCapsRequestBodies: a POST body past maxBody gets 413 on
// both the sweep and the worker endpoint, before anything is admitted,
// and a normal sweep still submits.
func TestHandlerCapsRequestBodies(t *testing.T) {
	c := testCoord(t, t.TempDir())
	defer c.Stop()
	ts := httptest.NewServer(Handler(c))
	defer ts.Close()

	huge := `{"name":"` + strings.Repeat("x", 2<<20) + `"}`
	for _, path := range []string{"/v1/sweeps", "/v1/workers"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 2 MiB body: %d, want 413", path, resp.StatusCode)
		}
	}
	if got := c.Sweeps(); len(got) != 0 {
		t.Errorf("oversized body admitted sweeps %v", got)
	}

	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		jsonBody(t, SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 5_000}))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("normal sweep: %d, want 202", resp.StatusCode)
	}
	if got := c.Sweeps(); len(got) != 1 {
		t.Errorf("sweeps = %v, want the one submitted", got)
	}
	w := newFakeWorker("done")
	defer w.ts.Close()
	resp, err = http.Post(ts.URL+"/v1/workers", "application/json", jsonBody(t, map[string]string{"url": w.ts.URL}))
	if err != nil {
		t.Fatalf("POST /v1/workers: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("normal worker registration: %d, want 200", resp.StatusCode)
	}
}

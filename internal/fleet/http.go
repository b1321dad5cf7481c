package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rvpsim/internal/simerr"
)

// Handler exposes the coordinator's sweep API:
//
//	POST /v1/sweeps        submit a SweepSpec (idempotent by sweep ID;
//	                       503 + Retry-After while the ledger disk fails)
//	GET  /v1/sweeps        list sweep IDs in admission order
//	GET  /v1/sweeps/{id}   one sweep's status (+ merged table when done)
//	POST /v1/workers       register a worker {"url": "http://..."}
//
// Both POST bodies are capped at maxBody; a larger one gets 413. The
// host daemon (rvpd) serves /healthz, /readyz and /metrics; the
// coordinator's fleet_* metrics ride the registry it is opened with.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec SweepSpec
		if !decodeBody(w, r, &spec) {
			return
		}
		st, err := c.SubmitSweep(spec)
		if err != nil {
			code := http.StatusInternalServerError
			switch {
			case errors.Is(err, simerr.ErrConfig):
				code = http.StatusBadRequest
			case errors.Is(err, ErrStorageDegraded):
				// Degraded, not dead: shed with a retry hint so clients
				// back off and resubmit once the disk recovers.
				code = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", strconv.Itoa(int(2*c.cfg.StorageProbeEvery/time.Second)+1))
			}
			httpJSON(w, code, map[string]string{"error": err.Error()})
			return
		}
		httpJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		httpJSON(w, http.StatusOK, c.Sweeps())
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := c.Status(r.PathValue("id"))
		if !ok {
			httpJSON(w, http.StatusNotFound, map[string]string{"error": "unknown sweep"})
			return
		}
		httpJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			URL string `json:"url"`
		}
		if !decodeBody(w, r, &body) {
			return
		}
		if err := c.AddWorker(body.URL); err != nil {
			httpJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		httpJSON(w, http.StatusOK, map[string]string{"registered": body.URL})
	})
	return mux
}

// maxBody bounds a POST body. A sweep spec or a worker URL is a few
// hundred bytes, so 1 MiB leaves room for any real grid.
const maxBody = 1 << 20

// decodeBody decodes r's JSON body into v, answering 413 past maxBody
// and 400 for bad JSON. It reports whether v is usable.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	if err == nil {
		return true
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		httpJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", maxBody)})
	} else {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
	}
	return false
}

func httpJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

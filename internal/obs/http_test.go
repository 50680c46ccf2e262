package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("demo_total", "Demo counter.").Add(42)
	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "demo_total 42") {
		t.Errorf("/metrics missing sample:\n%s", body)
	}
}

func TestHandlerSweep(t *testing.T) {
	tr := NewSweepTracker()
	tr.Begin([]SweepTarget{{Name: "device-1", Class: "SmallLX"}})
	tr.Start("device-1")
	tr.Done("device-1", SweepOutcome{Verdict: VerdictHealthy, Retries: 3})
	srv := httptest.NewServer(Handler(NewRegistry(), tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/sweep")
	if err != nil {
		t.Fatalf("GET /debug/sweep: %v", err)
	}
	defer resp.Body.Close()
	var snap SweepSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	if snap.Total != 1 || snap.Completed != 1 || snap.Verdicts[VerdictHealthy] != 1 || snap.Retries != 3 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestHandlerSweepWithoutTracker(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/sweep")
	if err != nil {
		t.Fatalf("GET /debug/sweep: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404 without a tracker", resp.StatusCode)
	}
}

func TestHandlerPprof(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET /debug/pprof/cmdline: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d, want 200", resp.StatusCode)
	}
}

func TestServe(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewRegistry(), nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatalf("GET bound addr: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
	// Every read is bounded; writes are not (long sweeps and profiles).
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Errorf("timeouts: header %v, read %v, idle %v, write %v; want bounded reads and no write bound",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	// A second listener on the same port must fail fast, synchronously.
	if _, _, err := Serve(addr.String(), nil, nil); err == nil {
		t.Error("Serve on an occupied port returned no error")
	}
}

package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Route mounts one extra handler on the observability mux — the hook
// sacha-fleetd uses to hang its /fleet/* control API off the same
// endpoint that already serves /metrics and /debug/sweep.
type Route struct {
	Pattern string
	Handler http.Handler
}

// Handler builds the observability endpoint: Prometheus-text /metrics
// for reg (nil = Default), a JSON /debug/sweep snapshot of sweep (404
// when nil), the net/http/pprof suite under /debug/pprof/, and any
// extra routes — wired explicitly so the handler composes with any mux
// instead of leaking into http.DefaultServeMux.
func Handler(reg *Registry, sweep *SweepTracker, extra ...Route) http.Handler {
	if reg == nil {
		reg = Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/sweep", func(w http.ResponseWriter, r *http.Request) {
		if sweep == nil {
			http.Error(w, "no sweep tracker attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(sweep.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, r := range extra {
		mux.Handle(r.Pattern, r.Handler)
	}
	return mux
}

// Server timeouts of Serve. The header and request timeouts bound how
// long a client may take to send its headers and its whole request, so
// a peer that trickles bytes cannot hold a connection open; the idle
// timeout closes idle keep-alive connections. There is deliberately no
// WriteTimeout: a {"wait": true} sweep and /debug/pprof/profile
// legitimately write their response later than any fixed bound.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Serve listens on addr and serves Handler(reg, sweep) in a background
// goroutine. It returns the bound address (useful with ":0") and the
// server, which the caller shuts down when done. Listen errors are
// returned synchronously so a mistyped -obs-addr fails fast.
func Serve(addr string, reg *Registry, sweep *SweepTracker, extra ...Route) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{
		Handler:           Handler(reg, sweep, extra...),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}

package core

import (
	"runtime"
	"testing"
	"time"

	"sacha/internal/attestation"
	"sacha/internal/verifier"
)

// TestSessionAllocsPerFrame pins the allocation cost of the message path
// over a whole warm SmallLX session on the simulated Ethernet link:
// verifier Run, the inline link and the prover's handler, counted
// process-wide per frame moved (configured + read back). What remains
// is essentially the one response frame per response that changes owner
// at InlineEndpoint.Send; requests are framed into a reused buffer.
//
// The reliable cases add the sequence envelope on both sides: the
// prover's cached response image is the one further allocation per
// message, and the verifier's engine reuses its envelope buffers,
// decoded responses and retry timer.
func TestSessionAllocsPerFrame(t *testing.T) {
	reliable := attestation.RetryPolicy{Timeout: 5 * time.Second, MaxRetries: 3}
	windowed := reliable
	windowed.Window = 16
	for _, tc := range []struct {
		name  string
		opts  verifier.Options
		limit float64
	}{
		{"plain", verifier.Options{}, 1},
		{"compress", verifier.Options{Compress: true}, 1},
		{"reliable", verifier.Options{Retry: reliable}, 2.5},
		{"windowed", verifier.Options{Retry: windowed}, 2.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := smallSystem(t, nil)
			plan, err := sys.Plan(0x5AC4A, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			opts := AttestOptions{Opts: tc.opts}
			if _, err := sys.AttestWithPlan(plan, opts); err != nil { // warm the buffers
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := sys.AttestWithPlan(plan, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Accepted {
				t.Fatal("honest device rejected")
			}
			frames := rep.FramesConfigured + rep.FramesRead
			perFrame := float64(after.Mallocs-before.Mallocs) / float64(frames)
			t.Logf("%d frames moved, %.2f allocations per frame", frames, perFrame)
			if perFrame > tc.limit {
				t.Fatalf("%.2f allocations per frame moved, want ≤ %v", perFrame, tc.limit)
			}
		})
	}
}

package channel

import (
	"math/rand"
	"testing"
	"time"
)

// TestFaultDelayInjectedClock proves FaultDelay goes through the
// injected clock instead of time.Sleep: every scheduled delay is
// observed by the fake clock and the call returns without wall-time
// cost, so a campaign can storm delays without wall-clock races.
func TestFaultDelayInjectedClock(t *testing.T) {
	ep := NewInline((&peer{echo: true}).handle, SimConfig{})
	defer ep.Close()

	var slept []time.Duration
	fe := NewFault(ep, FaultConfig{
		Delay: 250 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
		Script: []FaultOp{
			{Dir: DirSend, Index: 0, Kind: FaultDelay},
			{Dir: DirRecv, Index: 0, Kind: FaultDelay},
		},
	})

	start := time.Now()
	if err := fe.Send([]byte{1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := fe.Recv(); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if wall := time.Since(start); wall > 100*time.Millisecond {
		t.Fatalf("injected clock still cost %v of wall time", wall)
	}
	if len(slept) != 2 {
		t.Fatalf("fake clock saw %d sleeps, want 2 (send + recv)", len(slept))
	}
	for i, d := range slept {
		if d != 250*time.Millisecond {
			t.Fatalf("sleep %d = %v, want 250ms", i, d)
		}
	}
	st := fe.Stats()
	if st.Delayed != 2 {
		t.Fatalf("Delayed = %d, want 2", st.Delayed)
	}
}

// TestFaultInjectedSource proves a caller-owned rand.Source replaces the
// Seed-derived one and reproduces the identical fault sequence — the
// campaign scheduler's reproducibility contract.
func TestFaultInjectedSource(t *testing.T) {
	run := func(src rand.Source) FaultStats {
		ep := NewInline((&peer{}).handle, SimConfig{})
		defer ep.Close()
		fe := NewFault(ep, FaultConfig{
			Source:      src,
			DropProb:    0.3,
			CorruptProb: 0.3,
			// Seed deliberately clashes with the source to prove it is
			// ignored when Source is set.
			Seed: 0x5EED,
		})
		for i := 0; i < 64; i++ {
			if err := fe.Send([]byte{byte(i), 0xAB}); err != nil {
				t.Errorf("Send %d: %v", i, err)
				return FaultStats{}
			}
		}
		return fe.Stats()
	}

	s1 := run(rand.NewSource(42))
	s2 := run(rand.NewSource(42))
	if s1 != s2 {
		t.Fatalf("same injected source diverged: %+v vs %+v", s1, s2)
	}
	if s1.Dropped == 0 && s1.Corrupted == 0 {
		t.Fatalf("lottery never fired: %+v", s1)
	}
	s3 := run(rand.NewSource(7))
	if s3 == s1 {
		t.Fatalf("different sources produced identical stats %+v — Source likely ignored", s1)
	}
}

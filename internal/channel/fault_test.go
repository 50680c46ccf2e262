package channel

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

// collect receives n messages from ep or fails the test.
func collect(t *testing.T, ep Endpoint, n int) [][]byte {
	t.Helper()
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		msg, err := ep.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		out = append(out, msg)
	}
	return out
}

func TestFaultScriptDrop(t *testing.T) {
	p := &peer{}
	f := NewFault(NewInline(p.handle, SimConfig{}), FaultConfig{Script: []FaultOp{{Dir: DirSend, Index: 1, Kind: FaultDrop}}})
	for i := 0; i < 3; i++ {
		if err := f.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := p.got
	if len(got) != 2 || got[0][0] != 0 || got[1][0] != 2 {
		t.Fatalf("got %v, want messages 0 and 2", got)
	}
	if st := f.Stats(); st.Dropped != 1 || st.Sent != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultScriptDuplicate(t *testing.T) {
	p := &peer{}
	f := NewFault(NewInline(p.handle, SimConfig{}), FaultConfig{Script: []FaultOp{{Dir: DirSend, Index: 0, Kind: FaultDuplicate}}})
	if err := f.Send([]byte("dup")); err != nil {
		t.Fatal(err)
	}
	got := p.got
	if len(got) != 2 || !bytes.Equal(got[0], got[1]) || string(got[0]) != "dup" {
		t.Fatalf("got %q %q", got[0], got[1])
	}
	if st := f.Stats(); st.Duplicated != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultScriptReorder(t *testing.T) {
	p := &peer{}
	f := NewFault(NewInline(p.handle, SimConfig{}), FaultConfig{Script: []FaultOp{{Dir: DirSend, Index: 0, Kind: FaultReorder}}})
	f.Send([]byte("first"))
	f.Send([]byte("second"))
	got := p.got
	if len(got) != 2 || string(got[0]) != "second" || string(got[1]) != "first" {
		t.Fatalf("got %q %q, want reorder", got[0], got[1])
	}
	if st := f.Stats(); st.Reordered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultScriptCorrupt(t *testing.T) {
	p := &peer{}
	f := NewFault(NewInline(p.handle, SimConfig{}), FaultConfig{Script: []FaultOp{{Dir: DirSend, Index: 0, Kind: FaultCorrupt}}})
	orig := []byte("payload")
	f.Send(orig)
	got := p.got[0]
	if bytes.Equal(got, orig) {
		t.Fatal("corruption did not change the message")
	}
	// Exactly one bit flipped.
	diff := 0
	for i := range got {
		for x := got[i] ^ orig[i]; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
}

func TestFaultScriptResetOnSend(t *testing.T) {
	p := &peer{}
	inner := NewInline(p.handle, SimConfig{})
	f := NewFault(inner, FaultConfig{Script: []FaultOp{{Dir: DirSend, Index: 1, Kind: FaultReset}}})
	if err := f.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send([]byte("boom")); !errors.Is(err, ErrReset) {
		t.Fatalf("got %v, want ErrReset", err)
	}
	// Every later operation keeps failing with ErrReset.
	if err := f.Send([]byte("later")); !errors.Is(err, ErrReset) {
		t.Fatalf("post-reset send: %v", err)
	}
	if _, err := f.Recv(); !errors.Is(err, ErrReset) {
		t.Fatalf("post-reset recv: %v", err)
	}
	// The link under the injector is closed, after the one message.
	if len(p.got) != 1 || string(p.got[0]) != "ok" {
		t.Fatalf("peer got %q, want only the pre-reset message", p.got)
	}
	if err := inner.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("inner link after the reset: %v, want ErrClosed", err)
	}
}

func TestFaultRecvSideFaults(t *testing.T) {
	f := NewFault(NewInline((&peer{echo: true}).handle, SimConfig{}), FaultConfig{Script: []FaultOp{
		{Dir: DirRecv, Index: 0, Kind: FaultDrop},
		{Dir: DirRecv, Index: 2, Kind: FaultDuplicate},
	}})
	for i := 0; i < 3; i++ {
		f.Send([]byte{byte(i)})
	}
	got := collect(t, f, 3)
	want := []byte{1, 2, 2} // 0 dropped, 2 duplicated
	for i := range want {
		if got[i][0] != want[i] {
			t.Fatalf("message %d = %d, want %d", i, got[i][0], want[i])
		}
	}
	if st := f.Stats(); st.Dropped != 1 || st.Duplicated != 1 || st.Received != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultRecvReorderReleases(t *testing.T) {
	f := NewFault(NewInline((&peer{echo: true}).handle, SimConfig{}), FaultConfig{Script: []FaultOp{{Dir: DirRecv, Index: 0, Kind: FaultReorder}}})
	f.Send([]byte("held"))
	f.Send([]byte("pass"))
	got := collect(t, f, 2)
	if string(got[0]) != "pass" || string(got[1]) != "held" {
		t.Fatalf("got %q %q", got[0], got[1])
	}
}

func TestFaultDelayInjectsLatency(t *testing.T) {
	p := &peer{}
	f := NewFault(NewInline(p.handle, SimConfig{}), FaultConfig{
		Delay:  20 * time.Millisecond,
		Script: []FaultOp{{Dir: DirSend, Index: 0, Kind: FaultDelay}},
	})
	start := time.Now()
	f.Send([]byte("slow"))
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("send returned after %v, want >= 20ms delay", d)
	}
	if len(p.got) != 1 {
		t.Fatalf("peer got %d messages, want the delayed one", len(p.got))
	}
	if st := f.Stats(); st.Delayed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestFaultSeededLotteryDeterministic(t *testing.T) {
	run := func() (FaultStats, []string) {
		p := &peer{}
		f := NewFault(NewInline(p.handle, SimConfig{}), FaultConfig{Seed: 7, DropProb: 0.3, DupProb: 0.2})
		delivered := 0
		for i := 0; i < 100; i++ {
			if err := f.Send([]byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		st := f.Stats()
		delivered = st.Sent - st.Dropped + st.Duplicated
		if len(p.got) != delivered {
			t.Fatalf("peer got %d messages, stats say %d", len(p.got), delivered)
		}
		var msgs []string
		for _, m := range p.got {
			msgs = append(msgs, string(m))
		}
		return st, msgs
	}
	st1, msgs1 := run()
	st2, msgs2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ across equal seeds: %+v vs %+v", st1, st2)
	}
	if st1.Dropped == 0 || st1.Duplicated == 0 {
		t.Fatalf("lottery injected nothing: %+v", st1)
	}
	if len(msgs1) != len(msgs2) {
		t.Fatalf("deliveries differ: %d vs %d", len(msgs1), len(msgs2))
	}
	for i := range msgs1 {
		if msgs1[i] != msgs2[i] {
			t.Fatalf("delivery %d differs: %q vs %q", i, msgs1[i], msgs2[i])
		}
	}
}

func TestFaultPassThroughUnchanged(t *testing.T) {
	// A zero config must behave like the bare endpoint.
	p := &peer{echo: true}
	f := NewFault(NewInline(p.handle, SimConfig{}), FaultConfig{})
	f.Send([]byte("clean"))
	if string(p.got[0]) != "clean" {
		t.Fatalf("got %q", p.got[0])
	}
	if got := collect(t, f, 1); string(got[0]) != "clean" {
		t.Fatalf("got %q", got[0])
	}
	if st := f.Stats(); st.Dropped+st.Duplicated+st.Corrupted+st.Reordered+st.Delayed+st.Resets != 0 {
		t.Fatalf("zero config injected faults: %+v", st)
	}
}

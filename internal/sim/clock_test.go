package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestClockElapsed(t *testing.T) {
	c := NewClock("icap", ICAPClockHz)
	c.Tick(100) // 100 cycles at 100 MHz = 1 µs
	if got := c.Elapsed(); got != time.Microsecond {
		t.Errorf("Elapsed = %v, want 1µs", got)
	}
	if c.Cycles() != 100 {
		t.Errorf("Cycles = %d", c.Cycles())
	}
	c.Reset()
	if c.Cycles() != 0 || c.Elapsed() != 0 {
		t.Error("Reset failed")
	}
}

func TestClockElapsedLarge(t *testing.T) {
	c := NewClock("rx", RXClockHz)
	c.Tick(125_000_000 * 3) // exactly 3 s
	if got := c.Elapsed(); got != 3*time.Second {
		t.Errorf("Elapsed = %v, want 3s", got)
	}
}

func TestClockPeriod(t *testing.T) {
	c := NewClock("tx", TXClockHz)
	if got := c.PeriodNs(); got != 8.0 {
		t.Errorf("PeriodNs = %v, want 8.0 (Gigabit byte clock)", got)
	}
	if NewClock("icap", ICAPClockHz).PeriodNs() != 10.0 {
		t.Error("ICAP period should be 10 ns")
	}
}

func TestClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero frequency")
		}
	}()
	NewClock("bad", 0)
}

func TestClockNegativeTickPanics(t *testing.T) {
	c := NewClock("x", 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative tick")
		}
	}()
	c.Tick(-1)
}

func TestTimeline(t *testing.T) {
	tl := NewTimeline()
	tl.Add("wire", 5*time.Millisecond)
	tl.Add("icap", 2*time.Millisecond)
	tl.Add("wire", 3*time.Millisecond)
	if tl.Total() != 10*time.Millisecond {
		t.Errorf("Total = %v", tl.Total())
	}
	if tl.Tag("wire") != 8*time.Millisecond || tl.Tag("icap") != 2*time.Millisecond {
		t.Errorf("tags: wire=%v icap=%v", tl.Tag("wire"), tl.Tag("icap"))
	}
	tags := tl.Tags()
	if len(tags) != 2 || tags[0] != "icap" || tags[1] != "wire" {
		t.Errorf("Tags = %v", tags)
	}
	if s := tl.String(); !strings.Contains(s, "wire") || !strings.Contains(s, "total") {
		t.Errorf("String = %q", s)
	}
	tl.Reset()
	if tl.Total() != 0 || len(tl.Tags()) != 0 {
		t.Error("Reset failed")
	}
}

func TestTimelineNegativePanics(t *testing.T) {
	tl := NewTimeline()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tl.Add("x", -time.Second)
}

// mapTimeline is the map-backed Timeline the slice-backed one replaced,
// kept as the reference its observable behaviour must match.
type mapTimeline struct {
	total time.Duration
	byTag map[string]time.Duration
}

func (t *mapTimeline) add(tag string, d time.Duration) { t.total += d; t.byTag[tag] += d }

func (t *mapTimeline) tags() []string {
	out := make([]string, 0, len(t.byTag))
	for k := range t.byTag {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (t *mapTimeline) String() string {
	s := fmt.Sprintf("total %v", t.total)
	for _, tag := range t.tags() {
		s += fmt.Sprintf("; %s %v", tag, t.byTag[tag])
	}
	return s
}

// TestTimelineMatchesMapReference drives a seeded sequence of Add and
// Reset calls — zero durations and never-charged tags included — through
// the Timeline and the map reference and checks Tag, Tags, Total and
// String after every step.
func TestTimelineMatchesMapReference(t *testing.T) {
	names := []string{"wire", "latency", "icap-config", "icap-readback", "mac-init",
		"mac-update", "mac-finalize", "vrf-sw", "a", "b", "c", "d", "e", "f"}
	rng := rand.New(rand.NewSource(42))
	tl := NewTimeline()
	ref := &mapTimeline{byTag: map[string]time.Duration{}}
	for step := 0; step < 5000; step++ {
		if rng.Intn(400) == 0 {
			tl.Reset()
			ref = &mapTimeline{byTag: map[string]time.Duration{}}
		} else {
			tag := names[rng.Intn(len(names)-2)] // the last two are never charged
			d := time.Duration(rng.Intn(3)) * time.Duration(rng.Int63n(int64(time.Millisecond)))
			tl.Add(tag, d)
			ref.add(tag, d)
		}
		if tl.Total() != ref.total {
			t.Fatalf("step %d: Total %v, want %v", step, tl.Total(), ref.total)
		}
		for _, tag := range names {
			if tl.Tag(tag) != ref.byTag[tag] {
				t.Fatalf("step %d: Tag(%q) %v, want %v", step, tag, tl.Tag(tag), ref.byTag[tag])
			}
		}
		if got, want := tl.Tags(), ref.tags(); !slices.Equal(got, want) || got == nil {
			t.Fatalf("step %d: Tags %q, want %q", step, got, want)
		}
		if got, want := tl.String(), ref.String(); got != want {
			t.Fatalf("step %d: String\n%s\nwant\n%s", step, got, want)
		}
	}
}

// TestTimelineAddNoAlloc: charging a known tag allocates nothing.
func TestTimelineAddNoAlloc(t *testing.T) {
	tl := NewTimeline()
	tl.Add("wire", time.Nanosecond)
	tl.Add("latency", time.Nanosecond)
	if a := testing.AllocsPerRun(100, func() { tl.Add("latency", time.Nanosecond) }); a != 0 {
		t.Fatalf("Add allocates %.1f objects, want 0", a)
	}
}

package attestation_test

import (
	"runtime"
	"testing"

	"sacha/internal/attestation"
	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
)

// classSpec returns the spec of a device class on geo at a fixed nonce,
// plain or with fleet-delta's Compress+Delta options.
func classSpec(tb testing.TB, geo *device.Geometry, compressDelta bool) attestation.Spec {
	tb.Helper()
	golden, dyn, err := core.BuildGolden(geo, netlist.Blinker(8), 0xD00D, 0x5EED)
	if err != nil {
		tb.Fatal(err)
	}
	return attestation.Spec{Geo: geo, Golden: golden, DynFrames: dyn,
		Compress: compressDelta, Delta: compressDelta}
}

// noncePlan builds a cold plan of classSpec.
func noncePlan(tb testing.TB, geo *device.Geometry, compressDelta bool) *attestation.Plan {
	tb.Helper()
	p, err := attestation.NewPlan(classSpec(tb, geo, compressDelta))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// optionName labels a plain or Compress+Delta plan in subtest names.
func optionName(geo *device.Geometry, compressDelta bool) string {
	if compressDelta {
		return geo.Name + "/compress+delta"
	}
	return geo.Name + "/plain"
}

// withNonceBytes returns the heap bytes one WithNonce on p allocates,
// averaged over n calls at distinct nonces.
func withNonceBytes(tb testing.TB, p *attestation.Plan, n int) float64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		if _, err := p.WithNonce(uint64(i) * 0x9E3779B97F4A7C15); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestWithNonceAllocIndependentOfFrames pins the cost of a fresh nonce
// to the nonce column: a WithNonce allocates the nonce step and a Plan
// header, the same handful of frames on every geometry, never a copy
// of a per-frame table. SmallLX and the XC6VLX240T have 33× and 254×
// TinyLX's frames; a patch on either may cost at most 1.25× TinyLX's
// bytes.
func TestWithNonceAllocIndependentOfFrames(t *testing.T) {
	for _, compressDelta := range []bool{false, true} {
		tiny := withNonceBytes(t, noncePlan(t, device.TinyLX(), compressDelta), 50)
		for _, geo := range []*device.Geometry{device.SmallLX(), device.XC6VLX240T()} {
			got := withNonceBytes(t, noncePlan(t, geo, compressDelta), 50)
			t.Logf("compress+delta=%v: TinyLX %.0f B/op, %s %.0f B/op", compressDelta, tiny, geo.Name, got)
			if got > 1.25*tiny {
				t.Errorf("compress+delta=%v: WithNonce allocates %.0f B on %s against %.0f B on TinyLX — the patch grows with the fabric",
					compressDelta, got, geo.Name, tiny)
			}
		}
	}
}

// BenchmarkWithNonce measures one nonce patch per geometry, plain and
// with Compress+Delta (the fleet-delta benchmark's plan options).
func BenchmarkWithNonce(b *testing.B) {
	for _, geo := range []*device.Geometry{device.TinyLX(), device.SmallLX(), device.XC6VLX240T()} {
		for _, compressDelta := range []bool{false, true} {
			b.Run(optionName(geo, compressDelta), func(b *testing.B) {
				p := noncePlan(b, geo, compressDelta)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.WithNonce(uint64(i+1) * 0x9E3779B97F4A7C15); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestPlanHeapAllocBoundedByImage bounds what a cold plan keeps alive on
// the paper's XC6VLX240T: the heap it retains across a GC, plain and
// with Compress+Delta, is at most 2.5× the golden image's bytes. A plan
// holds one predicted-readback table and the encoded configuration
// packets, each about one image in size; its Msk is one frame per CLB
// minor, a few kilobytes.
func TestPlanHeapAllocBoundedByImage(t *testing.T) {
	geo := device.XC6VLX240T()
	image := float64(geo.NumFrames() * device.FrameWords * 4)
	for _, compressDelta := range []bool{false, true} {
		spec := classSpec(t, geo, compressDelta)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		p, err := attestation.NewPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(p)
		runtime.KeepAlive(spec.Golden) // the caller's, counted in before
		ratio := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / image
		t.Logf("%s: plan retains %.2f× the %.1f MB image", optionName(geo, compressDelta), ratio, image/1e6)
		if ratio > 2.5 {
			t.Errorf("%s: plan retains %.2f× its image, want at most 2.5×", optionName(geo, compressDelta), ratio)
		}
	}
}

// BenchmarkNewPlan measures one cold plan build per geometry, plain and
// with Compress+Delta, from a golden image built once.
func BenchmarkNewPlan(b *testing.B) {
	for _, geo := range []*device.Geometry{device.TinyLX(), device.SmallLX(), device.XC6VLX240T()} {
		for _, compressDelta := range []bool{false, true} {
			b.Run(optionName(geo, compressDelta), func(b *testing.B) {
				spec := classSpec(b, geo, compressDelta)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := attestation.NewPlan(spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

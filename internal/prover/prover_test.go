package prover

import (
	"math/rand"
	"net"
	"testing"

	"sacha/internal/bitstream"
	"sacha/internal/channel"
	"sacha/internal/device"
	"sacha/internal/fabric"
	"sacha/internal/protocol"
	"sacha/internal/puf"
)

// testBootMem synthesises a static boot image without importing core
// (which depends on this package).
func testBootMem(geo *device.Geometry) *bitstream.Partial {
	statFrames := fabric.StatRegion(geo).Frames()
	im := fabric.NewImage(geo)
	fabric.FillStatic(im, statFrames, 1)
	return bitstream.FromImage(im, statFrames)
}

func newDevice(t testing.TB) *Device {
	t.Helper()
	geo := device.SmallLX()
	d, err := New(Config{
		Geo:     geo,
		BootMem: testBootMem(geo),
		Key:     RegisterKey{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PowerOn(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	geo := device.SmallLX()
	boot := testBootMem(geo)
	if _, err := New(Config{BootMem: boot, Key: RegisterKey{}}); err == nil {
		t.Error("missing geometry accepted")
	}
	if _, err := New(Config{Geo: geo, Key: RegisterKey{}}); err == nil {
		t.Error("missing BootMem accepted")
	}
	if _, err := New(Config{Geo: geo, BootMem: boot}); err == nil {
		t.Error("missing key source accepted")
	}
}

func TestBoundedBootMemEnforced(t *testing.T) {
	// A BootMem large enough to hold the partial bitstream violates the
	// §5.2.1 size argument and must be rejected.
	geo := device.SmallLX()
	im := fabric.NewImage(geo)
	all := make([]int, geo.NumFrames())
	for i := range all {
		all[i] = i
	}
	huge := bitstream.FromImage(im, all)
	if _, err := New(Config{Geo: geo, BootMem: huge, Key: RegisterKey{}}); err == nil {
		t.Fatal("oversized BootMem accepted")
	}
}

func TestCommandsBeforePowerOn(t *testing.T) {
	geo := device.SmallLX()
	d, err := New(Config{Geo: geo, BootMem: testBootMem(geo), Key: RegisterKey{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Handle(protocol.Readback(0)); err == nil {
		t.Fatal("command accepted before power-on")
	}
}

func TestPowerOnLoadsStatMem(t *testing.T) {
	d := newDevice(t)
	statFrames := fabric.StatRegion(d.Geo).Frames()
	boot := testBootMem(d.Geo)
	for i, idx := range statFrames {
		want := boot.Frames[i].Words
		got := d.Fabric.Mem.Frame(idx)
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("StatMem frame %d word %d not booted", idx, w)
			}
		}
	}
}

func TestChecksumBeforeReadbackRejected(t *testing.T) {
	d := newDevice(t)
	if _, err := d.Handle(protocol.Checksum()); err == nil {
		t.Fatal("MAC_checksum before readback accepted")
	}
}

func TestSigWithoutSignerRejected(t *testing.T) {
	d := newDevice(t)
	if _, err := d.Handle(&protocol.Message{Type: protocol.MsgSigChecksum}); err == nil {
		t.Fatal("Sig_checksum without provisioned signer accepted")
	}
}

func TestReadbackSequenceProducesStableMAC(t *testing.T) {
	// Reading the same frames in the same order twice (with checksum in
	// between, which resets the MAC) must give identical tags.
	d := newDevice(t)
	runOnce := func() [16]byte {
		for idx := 0; idx < 5; idx++ {
			resp, err := d.Handle(protocol.Readback(idx))
			if err != nil {
				t.Fatal(err)
			}
			if resp.Type != protocol.MsgFrameData || resp.FrameIndex != uint32(idx) {
				t.Fatalf("unexpected response %v", resp.Type)
			}
		}
		sum, err := d.Handle(protocol.Checksum())
		if err != nil {
			t.Fatal(err)
		}
		return sum.MAC
	}
	a := runOnce()
	b := runOnce()
	if a != b {
		t.Fatal("identical readback sequences produced different MACs")
	}
}

func TestConfigChangesMAC(t *testing.T) {
	d := newDevice(t)
	dyn := fabric.DynRegion(d.Geo).Frames()
	target := dyn[0]

	mac := func() [16]byte {
		resp, err := d.Handle(protocol.Readback(target))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp
		sum, err := d.Handle(protocol.Checksum())
		if err != nil {
			t.Fatal(err)
		}
		return sum.MAC
	}
	before := mac()
	words := make([]uint32, device.FrameWords)
	words[3] = 0xDEAD
	if _, err := d.Handle(protocol.Config(target, words)); err != nil {
		t.Fatal(err)
	}
	after := mac()
	if before == after {
		t.Fatal("configuration change did not change the MAC")
	}
}

func TestConfigBatch(t *testing.T) {
	d := newDevice(t)
	dyn := fabric.DynRegion(d.Geo).Frames()
	m := &protocol.Message{Type: protocol.MsgICAPConfigBatch}
	for k := 0; k < 4; k++ {
		words := make([]uint32, device.FrameWords)
		words[0] = uint32(k + 1)
		m.Batch = append(m.Batch, protocol.FrameRecord{Index: uint32(dyn[k]), Words: words})
	}
	if _, err := d.Handle(m); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if d.Fabric.Mem.Frame(dyn[k])[0] != uint32(k+1) {
			t.Fatalf("batch frame %d not applied", k)
		}
	}
}

func TestConfigBatchBufferLimit(t *testing.T) {
	// A batch beyond the StatPart frame buffer violates the §6.1
	// constraint and must be rejected.
	d := newDevice(t)
	m := &protocol.Message{Type: protocol.MsgICAPConfigBatch}
	for k := 0; k <= FrameBufferFrames; k++ {
		m.Batch = append(m.Batch, protocol.FrameRecord{Index: uint32(k), Words: make([]uint32, device.FrameWords)})
	}
	if _, err := d.Handle(m); err == nil {
		t.Fatal("over-buffer batch accepted")
	}
}

func TestRestrictedControllerRejectsStaticWrites(t *testing.T) {
	// The Chaves et al. policy (paper §4.3): the ICAP controller only
	// accepts configuration into the dynamic partition.
	geo := device.SmallLX()
	d, err := New(Config{
		Geo:                 geo,
		BootMem:             testBootMem(geo),
		Key:                 RegisterKey{},
		RestrictConfigToDyn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PowerOn(); err != nil {
		t.Fatal(err)
	}
	statFrame := fabric.StatRegion(geo).Frames()[0]
	if _, err := d.Handle(protocol.Config(statFrame, make([]uint32, device.FrameWords))); err == nil {
		t.Fatal("restricted controller accepted a static-partition write")
	}
	dynFrame := fabric.DynRegion(geo).Frames()[0]
	if _, err := d.Handle(protocol.Config(dynFrame, make([]uint32, device.FrameWords))); err != nil {
		t.Fatalf("restricted controller rejected a dynamic write: %v", err)
	}
	// Batches are checked frame by frame.
	m := &protocol.Message{Type: protocol.MsgICAPConfigBatch, Batch: []protocol.FrameRecord{
		{Index: uint32(dynFrame), Words: make([]uint32, device.FrameWords)},
		{Index: uint32(statFrame), Words: make([]uint32, device.FrameWords)},
	}}
	if _, err := d.Handle(m); err == nil {
		t.Fatal("restricted controller accepted a mixed batch")
	}
}

func TestHandleBytesTurnsFailuresIntoErrors(t *testing.T) {
	d := newDevice(t)
	// Garbage input.
	resp, err := d.HandleBytes([]byte{0xFF, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := protocol.Decode(resp)
	if err != nil || m.Type != protocol.MsgError {
		t.Fatalf("garbage did not yield Error message: %v %v", m, err)
	}
	// Valid message, invalid semantics (readback out of range).
	raw, _ := protocol.Readback(1 << 30).Encode()
	resp, err = d.HandleBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	m, _ = protocol.Decode(resp)
	if m.Type != protocol.MsgError {
		t.Fatalf("out-of-range readback yielded %v", m.Type)
	}
}

func TestServeClosesCleanly(t *testing.T) {
	d := newDevice(t)
	c1, c2 := net.Pipe()
	a := channel.NewTCP(c1)
	done := make(chan error, 1)
	go func() { done <- d.Serve(channel.NewTCP(c2)) }()
	raw, _ := protocol.Readback(0).Encode()
	if err := a.Send(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v on clean close", err)
	}
}

func TestPUFKeyDescribe(t *testing.T) {
	stat := &PUFKey{Phys: &puf.Physical{DeviceID: 1}}
	dyn := &PUFKey{Phys: &puf.Physical{DeviceID: 1, CircuitID: 2}}
	if stat.Describe() != "StatPart PUF" || dyn.Describe() != "DynPart PUF" {
		t.Errorf("descriptions: %q %q", stat.Describe(), dyn.Describe())
	}
	if RegisterKey.Describe(RegisterKey{}) == "" {
		t.Error("RegisterKey description empty")
	}
	// Default RNG path.
	phys := &puf.Physical{DeviceID: 9, NoiseProb: 100}
	enr := puf.Enroll(phys, rand.New(rand.NewSource(1)))
	k := &PUFKey{Phys: phys, Helper: enr.Helper}
	got, err := k.Key()
	if err != nil {
		t.Fatal(err)
	}
	if got != enr.Key {
		t.Fatal("PUF key extraction with default RNG failed")
	}
}

func TestAppStepWithoutAppIsHarmless(t *testing.T) {
	// An empty dynamic partition has no flip-flops; stepping it is a
	// no-op, not a crash.
	d := newDevice(t)
	resp, err := d.Handle(&protocol.Message{Type: protocol.MsgAppStep, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != protocol.MsgAck {
		t.Fatalf("got %v", resp.Type)
	}
}

// TestScanReplyBoundedWhateverTheFrames: a scan answer's size must not
// depend on the probed frames' content. Sixteen incompressible frames
// get the empty overflow answer, which fits one Ethernet payload in its
// sequence envelope; sixteen sparse ones get their compressed words.
func TestScanReplyBoundedWhateverTheFrames(t *testing.T) {
	d := newDevice(t)
	hello, err := protocol.Hello(protocol.CapScan).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.serveBytes(hello); err != nil {
		t.Fatal(err)
	}
	dyn := fabric.DynRegion(d.Geo).Frames()[:protocol.MaxScanFrames]
	frames := make([]uint32, len(dyn))
	for i, f := range dyn {
		frames[i] = uint32(f)
	}
	scan := func() *protocol.Message {
		req, err := protocol.Scan(frames).Encode()
		if err != nil {
			t.Fatal(err)
		}
		resps, err := d.serveBytes(req)
		if err != nil || len(resps) != 1 {
			t.Fatalf("scan: %d responses, %v", len(resps), err)
		}
		if n := len(resps[0]) + protocol.SeqHeader; n > protocol.MaxWire {
			t.Fatalf("enveloped scan answer of %d bytes exceeds the %d-byte bound", n, protocol.MaxWire)
		}
		m, err := protocol.Decode(resps[0])
		if err != nil || m.Type != protocol.MsgScanData {
			t.Fatalf("scan answered %v, %v", m, err)
		}
		return m
	}
	if m := scan(); len(m.Comp) == 0 {
		t.Fatal("sparse frames answered with the overflow stream")
	}
	rng := rand.New(rand.NewSource(5))
	for _, f := range dyn {
		for w := range d.Fabric.Mem.Frame(f) {
			d.Fabric.Mem.Frame(f)[w] = rng.Uint32()
		}
	}
	if m := scan(); len(m.Comp) != 0 || len(m.Frames) != len(frames) {
		t.Fatalf("dense frames answered with %d compressed bytes for %d frames, want the empty overflow stream", len(m.Comp), len(m.Frames))
	}
}

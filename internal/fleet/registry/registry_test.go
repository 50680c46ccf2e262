package registry

import (
	"errors"
	"testing"

	"sacha/internal/core"
	"sacha/internal/device"
	"sacha/internal/netlist"
)

// mixedFactory provisions odd IDs on TinyLX, even on SmallLX — two
// distinct plan-sharing classes — in the rotatable DynPart-PUF mode.
func mixedFactory(id uint64) (*core.System, error) {
	geo := device.TinyLX()
	if id%2 == 0 {
		geo = device.SmallLX()
	}
	return core.NewSystem(core.Config{
		Geo:        geo,
		App:        netlist.Blinker(8),
		KeyMode:    core.KeyDynPUF,
		DeviceID:   id,
		LabLatency: -1,
		Seed:       int64(id),
	})
}

func TestStaticMembership(t *testing.T) {
	r, err := New(4, mixedFactory)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4 || len(r.IDs()) != 4 {
		t.Fatalf("size=%d ids=%v", r.Size(), r.IDs())
	}
	for i, id := range r.IDs() {
		if id != uint64(i+1) {
			t.Fatalf("enrollment order broken: %v", r.IDs())
		}
		if _, ok := r.System(id); !ok {
			t.Fatalf("member %d missing", id)
		}
	}
	if _, ok := r.System(99); ok {
		t.Fatal("phantom member 99")
	}
	if classes := Classes(r); len(classes) != 2 {
		t.Fatalf("mixed fleet should index 2 classes, got %v", classes)
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := New(0, mixedFactory); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New(2, func(uint64) (*core.System, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Fatal("factory failure not propagated")
	}
	r, err := New(1, mixedFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.System(99); ok {
		t.Fatal("unknown device returned")
	}
}

// TestRotateKeyAdvancesClass: a key rotation ships a new PUF circuit,
// which changes the golden image — so the class key must move to the
// new generation, splitting the rotated member off its old class.
func TestRotateKeyAdvancesClass(t *testing.T) {
	r, err := New(3, mixedFactory)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := r.ClassOf(1)
	if err := r.RotateKey(1); err != nil {
		t.Fatal(err)
	}
	after, _ := r.ClassOf(1)
	if before == after {
		t.Fatal("class key did not advance with the key generation")
	}
	peer, _ := r.ClassOf(3) // same geometry, not rotated
	if peer != before {
		t.Fatalf("unrotated peer moved class: %s vs %s", peer, before)
	}
	if err := r.RotateKey(42); err == nil {
		t.Fatal("rotating an unknown device must fail")
	}
}

func TestSubsetScoping(t *testing.T) {
	r, err := New(6, mixedFactory)
	if err != nil {
		t.Fatal(err)
	}
	tiny, _ := r.ClassOf(1)
	sub := ByClass(r, tiny)
	if got := sub.IDs(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("TinyLX subset = %v", got)
	}
	if _, ok := sub.System(2); ok {
		t.Fatal("subset leaked an out-of-class member")
	}
	if c, ok := sub.ClassOf(3); !ok || c != tiny {
		t.Fatalf("subset class lookup: %q %v", c, ok)
	}
	if err := sub.RotateKey(2); err == nil {
		t.Fatal("subset must refuse to rotate a non-member")
	}
	empty := Select(r, func(uint64, string) bool { return false })
	if len(empty.IDs()) != 0 {
		t.Fatalf("empty selection has members: %v", empty.IDs())
	}
}

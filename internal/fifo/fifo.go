// Package fifo models the dual-clock FIFOs of the SACHa static partition
// (Fig. 10: the readback FIFO between the ICAP and TX domains, and the
// header FIFO feeding the ETH core).
//
// A hardware dual-clock FIFO synchronises its read and write pointers
// across clock domains as Gray codes, so that a pointer sampled mid-change
// is off by at most one position and never tears. The model implements
// exactly that structure: binary pointers internally, Gray-coded snapshots
// exchanged between the two sides, and full/empty derived from the
// synchronised (hence possibly stale, always conservative) remote pointer.
package fifo

import (
	"errors"
	"fmt"
)

// errFull and errEmpty are the Push and Pop failures, built once so
// that a polling clock-domain crossing, which fails a Pop on every
// synchroniser stall, allocates nothing.
var (
	errFull  = errors.New("fifo: full")
	errEmpty = errors.New("fifo: empty")
)

// DualClock is a dual-clock FIFO of 32-bit words with a power-of-two
// capacity.
type DualClock struct {
	mem  []uint32
	mask uint32

	wptr, rptr uint32 // binary pointers, one extra wrap bit
	// wptrGraySync and rptrGraySync are the pointers as visible in the
	// other clock domain after the two-flop synchroniser: updated only
	// when Sync ticks the corresponding domain.
	wptrGraySync, rptrGraySync uint32
	// one-stage synchroniser pipelines.
	wptrGrayPipe, rptrGrayPipe uint32
}

// New returns a FIFO with the given capacity (a power of two ≥ 2).
func New(capacity int) (*DualClock, error) {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		return nil, fmt.Errorf("fifo: capacity %d is not a power of two ≥ 2", capacity)
	}
	return &DualClock{mem: make([]uint32, capacity), mask: uint32(capacity - 1)}, nil
}

// Cap returns the capacity in words.
func (f *DualClock) Cap() int { return len(f.mem) }

func gray(b uint32) uint32 { return b ^ b>>1 }

// pgray returns the pointer's Gray code in its native (N+1)-bit width —
// one wrap bit above the address bits, exactly as the hardware registers
// it. Without the width reduction, carries past the wrap bit would break
// the full/empty identities.
func (f *DualClock) pgray(p uint32) uint32 {
	return gray(p & (2*uint32(len(f.mem)) - 1))
}

// Full reports whether the write side sees the FIFO as full. It compares
// the local write pointer with the *synchronised* read pointer, so it may
// be pessimistic (report full when space just freed) but never optimistic.
func (f *DualClock) Full() bool {
	// Full when the Gray-coded pointers differ only in the top two bits.
	depth := uint32(len(f.mem))
	return f.pgray(f.wptr) == (f.rptrGraySync ^ depth ^ depth>>1)
}

// Empty reports whether the read side sees the FIFO as empty, against the
// synchronised write pointer.
func (f *DualClock) Empty() bool {
	return f.pgray(f.rptr) == f.wptrGraySync
}

// Push writes one word in the write clock domain. It fails when the FIFO
// is full from the writer's view.
func (f *DualClock) Push(v uint32) error {
	if f.Full() {
		return errFull
	}
	f.mem[f.wptr&f.mask] = v
	f.wptr++
	return nil
}

// Pop reads one word in the read clock domain. It fails when the FIFO is
// empty from the reader's view.
func (f *DualClock) Pop() (uint32, error) {
	if f.Empty() {
		return 0, errEmpty
	}
	v := f.mem[f.rptr&f.mask]
	f.rptr++
	return v, nil
}

// SyncWriteDomain ticks the write clock's pointer synchroniser: the read
// pointer's Gray code advances one stage toward the write side.
func (f *DualClock) SyncWriteDomain() {
	f.rptrGraySync = f.rptrGrayPipe
	f.rptrGrayPipe = f.pgray(f.rptr)
}

// SyncReadDomain ticks the read clock's pointer synchroniser: the write
// pointer's Gray code advances one stage toward the read side.
func (f *DualClock) SyncReadDomain() {
	f.wptrGraySync = f.wptrGrayPipe
	f.wptrGrayPipe = f.pgray(f.wptr)
}

// Len returns the exact occupancy (an oracle a real design does not have;
// tests use it to check the conservative flags).
func (f *DualClock) Len() int { return int(f.wptr - f.rptr) }

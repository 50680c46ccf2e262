package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	st, err := Open(dir, o)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return st
}

func testRecord(id, gen uint64) EnrollmentRecord {
	rec := EnrollmentRecord{
		DeviceID:   id,
		Generation: gen,
		Helper:     []byte{1, 2, 3, 4, byte(id)},
		Class:      "class-of-" + string(rune('a'+id%26)),
	}
	for i := range rec.Key {
		rec.Key[i] = byte(id + gen + uint64(i))
	}
	for i := range rec.Golden {
		rec.Golden[i] = byte(id * uint64(i))
	}
	return rec
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for id := uint64(1); id <= 5; id++ {
		if err := st.Enrollment().Put(testRecord(id, 1)); err != nil {
			t.Fatalf("put %d: %v", id, err)
		}
	}
	// Rotation overwrites: only the latest generation must survive.
	if err := st.Enrollment().Put(testRecord(3, 2)); err != nil {
		t.Fatalf("rotate put: %v", err)
	}
	if err := st.Enrollment().PutTrust(2, "class-x", true); err != nil {
		t.Fatalf("put trust: %v", err)
	}
	if err := st.Enrollment().PutTrust(4, "class-y", true); err != nil {
		t.Fatalf("put trust: %v", err)
	}
	if err := st.Enrollment().PutTrust(4, "class-y", false); err != nil {
		t.Fatalf("demote trust: %v", err)
	}
	for _, n := range []uint64{7, 0, ^uint64(0)} {
		if err := st.Nonces().Spend(n); err != nil {
			t.Fatalf("spend %#x: %v", n, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	ids := st2.Enrollment().Devices()
	if len(ids) != 5 {
		t.Fatalf("devices after reopen: %v", ids)
	}
	got, ok := st2.Enrollment().Lookup(3)
	if !ok || got.Generation != 2 {
		t.Fatalf("device 3 after reopen: %+v ok=%t", got, ok)
	}
	want := testRecord(3, 2)
	if got.Key != want.Key || got.Golden != want.Golden || got.Class != want.Class ||
		string(got.Helper) != string(want.Helper) {
		t.Fatalf("device 3 record drifted:\n  got  %+v\n  want %+v", got, want)
	}
	warm := st2.Enrollment().TrustSnapshot()
	if len(warm) != 1 || warm[2] != "class-x" {
		t.Fatalf("trust after reopen: %v", warm)
	}
	for _, n := range []uint64{7, 0, ^uint64(0)} {
		if !st2.Nonces().Spent(n) {
			t.Fatalf("nonce %#x forgotten across reopen", n)
		}
	}
	if st2.Nonces().Spent(8) {
		t.Fatal("unspent nonce reported spent")
	}
}

func TestNonceSpendIsCheckAndSet(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	defer st.Close()
	if err := st.Nonces().Spend(42); err != nil {
		t.Fatalf("first spend: %v", err)
	}
	err := st.Nonces().Spend(42)
	if !errors.Is(err, ErrNonceReplayed) {
		t.Fatalf("second spend: %v, want ErrNonceReplayed", err)
	}
}

func TestNonceExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{NonceTTL: time.Minute, Now: clock})
	if err := st.Nonces().Spend(9); err != nil {
		t.Fatalf("spend: %v", err)
	}
	if !errors.Is(st.Nonces().Spend(9), ErrNonceReplayed) {
		t.Fatal("unexpired nonce re-spent")
	}
	now = now.Add(2 * time.Minute)
	if st.Nonces().Spent(9) {
		t.Fatal("expired nonce still reported spent")
	}
	if err := st.Nonces().Spend(9); err != nil {
		t.Fatalf("re-spend after expiry: %v", err)
	}
	st.Close()

	// The re-spend's later expiry must win the replay regardless of
	// record order.
	st2 := mustOpen(t, dir, Options{NonceTTL: time.Minute, Now: clock})
	defer st2.Close()
	if !st2.Nonces().Spent(9) {
		t.Fatal("re-spent nonce lost its fresh expiry across reopen")
	}
}

func TestCrashWithoutCloseLosesNothing(t *testing.T) {
	// A process crash (SIGKILL) never calls Close. Appends go straight
	// to the file, so a reopen — even under SyncBatch — sees everything.
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{Sync: SyncBatch})
	if err := st.Enrollment().Put(testRecord(1, 3)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := st.Nonces().Spend(0xDEAD); err != nil {
		t.Fatalf("spend: %v", err)
	}
	// No Close: the old handles are simply abandoned.
	st2 := mustOpen(t, dir, Options{Sync: SyncBatch})
	defer st2.Close()
	if rec, ok := st2.Enrollment().Lookup(1); !ok || rec.Generation != 3 {
		t.Fatalf("enrollment lost without Close: %+v ok=%t", rec, ok)
	}
	if !st2.Nonces().Spent(0xDEAD) {
		t.Fatal("spent nonce lost without Close")
	}
}

func TestTornJournalTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for n := uint64(1); n <= 3; n++ {
		if err := st.Nonces().Spend(n); err != nil {
			t.Fatalf("spend: %v", err)
		}
	}
	st.Close()

	// A crash mid-append leaves a half-written frame at the tail.
	path := filepath.Join(dir, "nonce.journal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xAA}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := mustOpen(t, dir, Options{})
	for n := uint64(1); n <= 3; n++ {
		if !st2.Nonces().Spent(n) {
			t.Fatalf("nonce %d lost to torn-tail truncation", n)
		}
	}
	// The journal must be appendable again on a clean frame boundary.
	if err := st2.Nonces().Spend(4); err != nil {
		t.Fatalf("spend after truncation: %v", err)
	}
	st2.Close()
	st3 := mustOpen(t, dir, Options{})
	defer st3.Close()
	if !st3.Nonces().Spent(4) {
		t.Fatal("post-truncation append lost")
	}
}

func TestCompactionPreservesStateAndShrinksJournal(t *testing.T) {
	dir := t.TempDir()
	o := Options{CompactEvery: 8}
	st := mustOpen(t, dir, o)
	for id := uint64(1); id <= 40; id++ {
		if err := st.Enrollment().Put(testRecord(id%4+1, id)); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := st.Nonces().Spend(id); err != nil {
			t.Fatalf("spend: %v", err)
		}
	}
	st.Close()

	for _, name := range []string{"enroll", "nonce"} {
		if _, err := os.Stat(filepath.Join(dir, name+".snap")); err != nil {
			t.Fatalf("no %s snapshot after %d appends: %v", name, 40, err)
		}
		info, err := os.Stat(filepath.Join(dir, name+".journal"))
		if err != nil {
			t.Fatal(err)
		}
		// 8 records at most remain journaled after the last compaction.
		if info.Size() > int64(headerSize+o.CompactEvery*(recHeaderSize+MaxRecord)) {
			t.Fatalf("%s journal did not shrink: %d bytes", name, info.Size())
		}
	}

	st2 := mustOpen(t, dir, o)
	defer st2.Close()
	for id := uint64(1); id <= 4; id++ {
		if _, ok := st2.Enrollment().Lookup(id); !ok {
			t.Fatalf("device %d lost to compaction", id)
		}
	}
	for n := uint64(1); n <= 40; n++ {
		if !st2.Nonces().Spent(n) {
			t.Fatalf("nonce %d lost to compaction", n)
		}
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{CompactEvery: 1})
	if err := st.Nonces().Spend(1); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, "nonce.snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a payload byte: CRC now fails
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestHostileRecordPayloadRejected(t *testing.T) {
	dir := t.TempDir()
	// A well-framed journal whose payload decodes hostile (unknown tag).
	buf := header(kindEnroll)
	buf = append(buf, frameRecord([]byte{0xFF, 1, 2, 3})...)
	if err := os.WriteFile(filepath.Join(dir, "enroll.journal"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("hostile enrollment payload accepted")
	}
}

func TestOversizeRecordRefused(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	defer st.Close()
	rec := testRecord(1, 1)
	rec.Helper = make([]byte, MaxRecord)
	if err := st.Enrollment().Put(rec); err == nil {
		t.Fatal("oversize enrollment record accepted")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	if p, err := ParseSyncPolicy("always"); err != nil || p != SyncAlways {
		t.Fatalf("always: %v %v", p, err)
	}
	if p, err := ParseSyncPolicy("batch"); err != nil || p != SyncBatch {
		t.Fatalf("batch: %v %v", p, err)
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if SyncAlways.String() != "always" || SyncBatch.String() != "batch" {
		t.Fatal("String drifted from flag spelling")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	st := mustOpen(t, t.TempDir(), Options{})
	st.Close()
	if err := st.Nonces().Spend(1); err == nil {
		t.Fatal("spend after Close succeeded")
	}
	if err := st.Enrollment().Put(testRecord(1, 1)); err == nil {
		t.Fatal("put after Close succeeded")
	}
}

// A journal write that fails can leave a torn frame behind, and replay
// stops at it: every record appended after it would be acknowledged and
// then lost on reopen. The journal must fail closed — once one append
// fails, every later one fails too, even when the file works again.
func TestFailedAppendFailsClosed(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	defer st.Close()
	if err := st.Nonces().Spend(1); err != nil {
		t.Fatalf("spend 1: %v", err)
	}
	lg := st.Nonces().lg
	ro, err := os.Open(lg.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	rw := lg.f
	lg.f = ro
	if err := st.Nonces().Spend(2); err == nil {
		t.Fatal("spend 2 succeeded on a read-only journal")
	}
	lg.f = rw
	ro.Close()
	if err := st.Nonces().Spend(3); err == nil {
		t.Fatal("spend 3 acknowledged after a failed journal write")
	}
	if st.Nonces().Spent(3) {
		t.Fatal("refused spend 3 still marked the nonce spent")
	}
	if err := st.Flush(); err == nil {
		t.Fatal("flush succeeded after a failed journal write")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close after a failed journal write: %v", err)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if !re.Nonces().Spent(1) {
		t.Fatal("nonce spent before the failure lost on reopen")
	}
}

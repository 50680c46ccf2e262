// Package store is the durable state layer of the fleet stack: a
// stdlib-only, file-backed persistence substrate behind the two
// contracts the SACHa security argument needs to survive a verifier
// restart (DESIGN.md §15) —
//
//   - an enrollment store (device ID → class, PUF key generation, key
//     material, golden digest) that backs registry.Durable, so the key
//     renewal state of §5.2.1 is not session ephemera, and
//   - a nonce journal (check-and-set with expiration) the sweep path
//     consults before a nonce is issued and records when it is spent,
//     so a crashed daemon does not silently reopen the replay window.
//
// Both contracts share one on-disk mechanism: an append-only journal of
// CRC'd, length-prefixed records plus a periodically compacted snapshot,
// written with the same hostile-input discipline as
// compress.DecodeBounded — every declared length is bounded and checked
// against the remaining input before any allocation, so a corrupt or
// adversarial state directory degrades to an error (or, for a torn
// journal tail, a truncation to the last good record), never a panic or
// an allocation amplification.
//
// Durability contract: the journal is written straight to the file
// descriptor (no user-space buffering), so a process crash — SIGKILL
// included — loses nothing that Append returned for, regardless of the
// sync policy; the OS page cache holds the bytes. The SyncPolicy only
// decides what a *power* failure can lose: SyncAlways fsyncs every
// append, SyncBatch defers to Flush/Close. Snapshots are written to a
// temporary file, fsynced and renamed, so a crash at any point leaves
// either the old or the new snapshot — never a torn one.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// magic identifies every store file (journal and snapshot); the byte
// after it names the record kind the file carries.
const magic = "SACHAST1"

// MaxRecord bounds one record's payload. Every real record (an
// enrollment with helper data, a trust mark, a spent nonce) is far
// smaller; the bound exists so a hostile length prefix cannot demand an
// allocation — the DecodeBounded discipline.
const MaxRecord = 4096

const headerSize = len(magic) + 1

// recHeaderSize is the per-record framing: uint32 payload length plus
// uint32 CRC-32 (IEEE) of the payload.
const recHeaderSize = 8

// SyncPolicy selects when the journal is fsynced. See the package
// comment for what each policy can lose and when.
type SyncPolicy int

const (
	// SyncAlways fsyncs the journal after every appended record: a spent
	// nonce or a bumped key generation survives even a power failure the
	// moment the append returns. This is the default and the policy the
	// rotate-key durability ordering ("generation durable before the new
	// key is used") assumes against power loss.
	SyncAlways SyncPolicy = iota
	// SyncBatch defers fsync to Flush/Close (the fleetd drain path): a
	// process crash still loses nothing (writes go straight to the OS),
	// but a power failure may lose records appended since the last flush.
	SyncBatch
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseSyncPolicy parses the -fsync flag spelling.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want always or batch)", s)
}

// DefaultCompactEvery is how many journal appends accumulate before the
// store folds them into a fresh snapshot and truncates the journal.
const DefaultCompactEvery = 1024

// Options shape a Store.
type Options struct {
	// Sync is the journal fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// NonceTTL is how long a spent nonce stays unspendable. Zero means
	// entries never expire. See DESIGN.md §15 for why expiry does not
	// reopen the replay window it seems to.
	NonceTTL time.Duration
	// CompactEvery is the journal-records-per-compaction threshold;
	// values < 1 default to DefaultCompactEvery.
	CompactEvery int
	// Now is the nonce-expiry clock; nil means time.Now. A test hook.
	Now func() time.Time
}

// Store is one state directory: the enrollment store and the nonce
// journal, opened together and flushed/closed together.
type Store struct {
	dir    string
	enroll *EnrollmentStore
	nonces *NonceJournal
}

// Open loads (or initializes) the state directory. Torn journal tails —
// the residue of a crash mid-append — are truncated to the last good
// record; corrupt snapshots and records that decode hostile are errors.
func Open(dir string, o Options) (*Store, error) {
	if o.CompactEvery < 1 {
		o.CompactEvery = DefaultCompactEvery
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	enroll, err := openEnrollment(dir, o)
	if err != nil {
		return nil, err
	}
	nonces, err := openNonceJournal(dir, o)
	if err != nil {
		enroll.lg.Close()
		return nil, err
	}
	return &Store{dir: dir, enroll: enroll, nonces: nonces}, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// Enrollment returns the device enrollment store.
func (s *Store) Enrollment() *EnrollmentStore { return s.enroll }

// Nonces returns the anti-replay nonce journal.
func (s *Store) Nonces() *NonceJournal { return s.nonces }

// Flush fsyncs both journals — the SyncBatch checkpoint.
func (s *Store) Flush() error {
	if err := s.enroll.lg.Flush(); err != nil {
		return err
	}
	return s.nonces.lg.Flush()
}

// Close flushes and closes both journals. The graceful-drain path of
// sacha-fleetd calls this after the last sweep is joined.
func (s *Store) Close() error {
	err := s.enroll.lg.Close()
	if err2 := s.nonces.lg.Close(); err == nil {
		err = err2
	}
	return err
}

// log is the shared on-disk mechanism: one append-only journal file
// plus one atomically replaced snapshot, both carrying the same framed
// record stream behind a kind-tagged header.
type log struct {
	mu       sync.Mutex
	path     string // dir/name, extensions added per file
	kind     byte
	pol      SyncPolicy
	every    int
	f        *os.File
	appended int // records since the last compaction
	closed   bool
	// failed is the first journal write, fsync or rewrite error; every
	// later Append, Flush and compaction returns it, since a torn frame
	// would make replay drop whatever was appended behind it.
	failed error
}

// openLog opens name's snapshot+journal pair under dir and returns the
// replayed records: snapshot records first (the compacted base state),
// then journal records (the appends since), in write order.
func openLog(dir, name string, kind byte, o Options) (*log, [][]byte, error) {
	lg := &log{path: filepath.Join(dir, name), kind: kind, pol: o.Sync, every: o.CompactEvery}

	var records [][]byte
	snap, err := os.ReadFile(lg.snapPath())
	switch {
	case err == nil:
		// A snapshot exists only via the atomic tmp+rename path, so any
		// decode failure here is corruption or hostility, not a torn write.
		recs, err := decodeStream(snap, kind, true)
		if err != nil {
			return nil, nil, fmt.Errorf("store: snapshot %s: %w", lg.snapPath(), err)
		}
		records = recs
	case os.IsNotExist(err):
	default:
		return nil, nil, fmt.Errorf("store: %w", err)
	}

	f, err := os.OpenFile(lg.journalPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	lg.f = f
	data, err := os.ReadFile(lg.journalPath())
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if len(data) < headerSize {
		// Fresh (or torn-before-header) journal: write the header anew.
		if err := lg.writeHeader(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		return lg, records, nil
	}
	if err := checkHeader(data, kind); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: journal %s: %w", lg.journalPath(), err)
	}
	// The journal tolerates a torn tail — the residue of a crash mid-
	// append. Everything before the first malformed byte is replayed;
	// the tail is truncated so the next append lands on a clean frame.
	recs, good := decodeTolerant(data[headerSize:])
	records = append(records, recs...)
	if keep := int64(headerSize + good); keep < int64(len(data)) {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	lg.appended = len(recs)
	return lg, records, nil
}

func (lg *log) journalPath() string { return lg.path + ".journal" }
func (lg *log) snapPath() string    { return lg.path + ".snap" }

func (lg *log) writeHeader() error {
	if err := lg.f.Truncate(0); err != nil {
		return err
	}
	if _, err := lg.f.WriteAt(header(lg.kind), 0); err != nil {
		return err
	}
	_, err := lg.f.Seek(int64(headerSize), 0)
	return err
}

// Append frames and writes one record, fsyncing under SyncAlways. The
// caller (EnrollmentStore / NonceJournal) holds its own mutex and owns
// the decision to compact via MaybeCompact.
func (lg *log) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("store: record payload %d bytes exceeds the %d-byte bound", len(payload), MaxRecord)
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.closed {
		return fmt.Errorf("store: closed")
	}
	if lg.failed != nil {
		return lg.failed
	}
	_, err := lg.f.Write(frameRecord(payload))
	if err == nil && lg.pol == SyncAlways {
		err = lg.f.Sync()
	}
	if err != nil {
		return lg.fail(err)
	}
	lg.appended++
	return nil
}

// fail records the journal's first failure and returns it.
func (lg *log) fail(err error) error {
	lg.failed = fmt.Errorf("store: journal %s failed: %w", lg.journalPath(), err)
	return lg.failed
}

// MaybeCompact folds the current state (rendered by the owner as a
// record list) into a fresh snapshot once enough appends accumulated:
// tmp + fsync + rename (atomic), then the journal is truncated back to
// its header. A crash between rename and truncate leaves duplicate
// records, which the replay maps absorb idempotently.
func (lg *log) MaybeCompact(state func() [][]byte) error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.failed != nil {
		return lg.failed
	}
	if lg.closed || lg.appended < lg.every {
		return nil
	}
	return lg.compactLocked(state())
}

func (lg *log) compactLocked(state [][]byte) error {
	tmp := lg.snapPath() + ".tmp"
	buf := header(lg.kind)
	for _, rec := range state {
		buf = append(buf, frameRecord(rec)...)
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, lg.snapPath()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	syncDir(filepath.Dir(lg.path))
	if err := lg.writeHeader(); err != nil {
		return lg.fail(err)
	}
	if err := lg.f.Sync(); err != nil {
		return lg.fail(err)
	}
	lg.appended = 0
	return nil
}

// Flush fsyncs the journal — the SyncBatch checkpoint.
func (lg *log) Flush() error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.closed {
		return nil
	}
	if lg.failed != nil {
		return lg.failed
	}
	if err := lg.f.Sync(); err != nil {
		return lg.fail(err)
	}
	return nil
}

// Close flushes and closes the journal; further appends fail.
func (lg *log) Close() error {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.closed {
		return nil
	}
	lg.closed = true
	if err := lg.f.Sync(); err != nil {
		lg.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := lg.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir best-effort fsyncs a directory so a rename is durable; some
// filesystems do not support it, which only widens the power-failure
// window, never the crash one.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

func header(kind byte) []byte {
	return append([]byte(magic), kind)
}

func checkHeader(data []byte, kind byte) error {
	if len(data) < headerSize {
		return fmt.Errorf("short header (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return fmt.Errorf("bad magic %q", data[:len(magic)])
	}
	if data[len(magic)] != kind {
		return fmt.Errorf("record kind %q, want %q", data[len(magic)], kind)
	}
	return nil
}

// frameRecord frames one payload: uint32 length, uint32 CRC-32 (IEEE),
// payload.
func frameRecord(payload []byte) []byte {
	buf := make([]byte, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[recHeaderSize:], payload)
	return buf
}

// DecodeRecords decodes a bare framed-record stream (no file header)
// strictly: any malformed frame — oversize or truncated declared
// length, CRC mismatch — is an error. Allocation is bounded by the
// input: every payload copy is at most MaxRecord bytes and at most the
// remaining input, checked BEFORE the copy (the DecodeBounded
// discipline), so hostile bytes cannot amplify.
func DecodeRecords(data []byte) ([][]byte, error) {
	recs, good := decodeTolerant(data)
	if good != len(data) {
		return nil, fmt.Errorf("store: malformed record at offset %d", good)
	}
	return recs, nil
}

// decodeStream decodes a full store file: header plus records. strict
// rejects any trailing malformation (the snapshot path); tolerant use
// goes through decodeTolerant directly (the journal path).
func decodeStream(data []byte, kind byte, strict bool) ([][]byte, error) {
	if err := checkHeader(data, kind); err != nil {
		return nil, err
	}
	recs, good := decodeTolerant(data[headerSize:])
	if strict && headerSize+good != len(data) {
		return nil, fmt.Errorf("malformed record at offset %d", headerSize+good)
	}
	return recs, nil
}

// decodeTolerant parses records until the first malformed frame,
// returning the good records and the offset of the first byte not part
// of one — the journal truncation point.
func decodeTolerant(data []byte) ([][]byte, int) {
	var recs [][]byte
	off := 0
	for {
		rest := data[off:]
		if len(rest) < recHeaderSize {
			return recs, off
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n > MaxRecord || n > len(rest)-recHeaderSize {
			// Oversize (hostile) or truncated (torn tail) — either way the
			// stream ends here, and no allocation has happened for it.
			return recs, off
		}
		payload := rest[recHeaderSize : recHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return recs, off
		}
		rec := make([]byte, n)
		copy(rec, payload)
		recs = append(recs, rec)
		off += recHeaderSize + n
	}
}

// Package store is the persistent on-disk solution store: the second
// cache tier under the engine's in-memory LRU. Entries are keyed by the
// engine's content-hash cache keys (sha256 of the printed module + the
// rendered configuration), so a restarted process rebuilds exactly the
// keys it would compute fresh and every hit is, by construction, for
// byte-identical input. Incremental session generations never reach the
// cache, so they never reach the store either.
//
// The layout is a single append-only log (solutions.log): a file header
// followed by records of
//
//	recMagic u32 · keyLen u16 · key · fpHash u64 · payloadLen u32 ·
//	payload (core.Solution wire encoding) · crc32 u32 (IEEE, over
//	key+fpHash+payload)
//
// Appends never rewrite existing bytes, so a crash can only tear the
// tail; Open scans the log, keeps the last intact record per key, and
// truncates a torn tail. Compact rewrites live records to a temp file and
// atomically renames it over the log.
//
// The load path is paranoid by design — this tier survives restarts, so
// it is the one place stale or corrupt state could leak back into a sound
// analysis. Every Load re-checks the CRC, decodes through the
// bounds-checked wire reader, recomputes core.FingerprintHash, and
// compares it to the hash recorded at save time. Any mismatch is a miss,
// counted but never served; the caller simply re-solves. The store.load
// and store.save fault points inject errors and bit flips here so the
// chaos suite can pin that contract.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/pip-analysis/pip/internal/core"
	"github.com/pip-analysis/pip/internal/faults"
)

const (
	logName    = "solutions.log"
	fileHeader = "PIPSTORE1\n"
	recMagic   = 0x50495052 // "PIPR"
	maxKeyLen  = 1 << 12
	maxPayload = 1 << 30
)

// Stats counts store traffic. Corrupt counts entries rejected on load by
// the CRC or fingerprint check — every one of them was answered by a
// re-solve, never by the bad bytes.
type Stats struct {
	Saves    int // records appended
	Skipped  int // saves skipped because the same key+fingerprint is live
	Loads    int // lookup attempts
	Hits     int // verified loads served
	Misses   int // absent keys
	Corrupt  int // present but failed CRC/decode/fingerprint verification
	SaveErrs int // failed appends (I/O or injected fault)
}

type entry struct {
	off int64 // record start offset
	len int64 // full record length
	fp  uint64
}

// Store is a persistent solution store bound to one directory. All
// methods are safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	dir   string
	f     *os.File
	size  int64 // logical end of the last intact record
	dead  int64 // bytes held by superseded records
	index map[string]entry
	stats Stats
}

// Open opens (creating if needed) the store in dir and indexes the
// existing log. A torn tail — from a crash mid-append — is truncated; the
// intact prefix stays live. If more than half of the surviving log is
// superseded records, the log is compacted in place before use.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, f: f, index: make(map[string]entry)}
	if err := s.scan(); err != nil {
		f.Close()
		return nil, err
	}
	if s.dead > s.size/2 {
		if err := s.compactLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// scan builds the index from the log, writing the header into an empty
// file and truncating a torn tail from a crashed one.
func (s *Store) scan() error {
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if st.Size() == 0 {
		if _, err := s.f.Write([]byte(fileHeader)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(fileHeader))
		return nil
	}
	hdr := make([]byte, len(fileHeader))
	if _, err := io.ReadFull(s.f, hdr); err != nil || string(hdr) != fileHeader {
		return fmt.Errorf("store: %s is not a pip solution log", logName)
	}
	off := int64(len(fileHeader))
	for off < st.Size() {
		key, e, ok := s.readRecordAt(off, st.Size())
		if !ok {
			break // torn tail: keep the intact prefix
		}
		if old, dup := s.index[key]; dup {
			s.dead += old.len
		}
		s.index[key] = e
		off += e.len
	}
	s.size = off
	if off < st.Size() {
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	return nil
}

// readRecordAt parses the record frame at off without verifying the CRC
// (Load does that per-lookup; the scan only needs framing to walk the
// log). Returns ok=false when the bytes at off do not frame an intact
// record.
func (s *Store) readRecordAt(off, fileSize int64) (string, entry, bool) {
	var fixed [4 + 2]byte
	if off+int64(len(fixed)) > fileSize {
		return "", entry{}, false
	}
	if _, err := s.f.ReadAt(fixed[:], off); err != nil {
		return "", entry{}, false
	}
	if binary.LittleEndian.Uint32(fixed[:4]) != recMagic {
		return "", entry{}, false
	}
	keyLen := int64(binary.LittleEndian.Uint16(fixed[4:6]))
	if keyLen == 0 || keyLen > maxKeyLen {
		return "", entry{}, false
	}
	head := make([]byte, keyLen+8+4)
	if off+6+int64(len(head)) > fileSize {
		return "", entry{}, false
	}
	if _, err := s.f.ReadAt(head, off+6); err != nil {
		return "", entry{}, false
	}
	fp := binary.LittleEndian.Uint64(head[keyLen : keyLen+8])
	payloadLen := int64(binary.LittleEndian.Uint32(head[keyLen+8:]))
	if payloadLen > maxPayload {
		return "", entry{}, false
	}
	total := 6 + keyLen + 8 + 4 + payloadLen + 4
	if off+total > fileSize {
		return "", entry{}, false
	}
	return string(head[:keyLen]), entry{off: off, len: total, fp: fp}, true
}

// Save appends the solution under key. A save whose key is already live
// with the same fingerprint is skipped — drains flush the whole resident
// cache, and rewriting identical entries would grow the log for nothing.
// Degraded solutions must not be persisted (they encode a budget decision,
// not a fixed point); Save rejects them.
func (s *Store) Save(key string, sol *core.Solution) error {
	if sol.Degraded {
		return errors.New("store: refusing to persist a degraded solution")
	}
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range", len(key))
	}
	fp := core.FingerprintHash(sol)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[key]; ok && e.fp == fp {
		s.stats.Skipped++
		return nil
	}
	if err := faults.Inject(faults.StoreSave); err != nil {
		s.stats.SaveErrs++
		return err
	}
	payload := sol.EncodeWire()
	rec := make([]byte, 0, 6+len(key)+8+4+len(payload)+4)
	rec = binary.LittleEndian.AppendUint32(rec, recMagic)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(key)))
	rec = append(rec, key...)
	rec = binary.LittleEndian.AppendUint64(rec, fp)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crcOf(rec[6:]))
	n, err := s.f.WriteAt(rec, s.size)
	if err != nil {
		// A partial append is a torn tail; the next Open truncates it.
		// Do not advance size, so a later Save overwrites the fragment.
		s.stats.SaveErrs++
		return fmt.Errorf("store: append (%d/%d bytes): %w", n, len(rec), err)
	}
	if old, ok := s.index[key]; ok {
		s.dead += old.len
	}
	s.index[key] = entry{off: s.size, len: int64(len(rec)), fp: fp}
	s.size += int64(len(rec))
	s.stats.Saves++
	return nil
}

// crcOf is the record checksum: IEEE CRC-32 over key+fpHash+payload (the
// frame after the magic and key length).
func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Load returns the verified solution stored under key, bound to p, or
// (nil, false) on any miss: absent key, I/O error, CRC mismatch, decode
// failure, or fingerprint mismatch. A failed verification never returns
// bytes to the caller.
func (s *Store) Load(key string, p *core.Problem) (*core.Solution, bool) {
	s.mu.Lock()
	s.stats.Loads++
	e, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	sol, err := s.loadEntry(key, e, p)
	if err != nil {
		s.mu.Lock()
		s.stats.Corrupt++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	return sol, true
}

func (s *Store) loadEntry(key string, e entry, p *core.Problem) (*core.Solution, error) {
	if err := faults.Inject(faults.StoreLoad); err != nil {
		return nil, err
	}
	rec := make([]byte, e.len)
	if _, err := s.f.ReadAt(rec, e.off); err != nil {
		return nil, fmt.Errorf("store: read: %w", err)
	}
	body := rec[6 : len(rec)-4] // key+fp+payload
	if faults.ShouldCorrupt(faults.StoreLoad) {
		// Deterministic single-byte disk corruption for the chaos suite:
		// flip a payload byte in our private copy of the record.
		body[len(body)-1] ^= 0x41
	}
	if crcOf(body) != binary.LittleEndian.Uint32(rec[len(rec)-4:]) {
		return nil, errors.New("store: CRC mismatch")
	}
	if string(body[:len(key)]) != key {
		return nil, errors.New("store: key mismatch at indexed offset")
	}
	fp := binary.LittleEndian.Uint64(body[len(key) : len(key)+8])
	sol, err := core.DecodeSolution(p, body[len(key)+8+4:])
	if err != nil {
		return nil, err
	}
	if got := core.FingerprintHash(sol); got != fp {
		return nil, fmt.Errorf("store: fingerprint mismatch (have %x, recorded %x)", got, fp)
	}
	return sol, nil
}

// Contains reports whether key has a live record, without reading or
// verifying it.
func (s *Store) Contains(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Sync flushes the log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync()
}

// Compact rewrites the live records into a fresh log and atomically
// renames it over the old one, dropping superseded records.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmpPath := filepath.Join(s.dir, logName+".compact")
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	if _, err := tmp.Write([]byte(fileHeader)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	// Deterministic record order keeps compacted logs of equal content
	// byte-identical: sort by original append offset.
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && s.index[keys[j]].off < s.index[keys[j-1]].off; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	newIndex := make(map[string]entry, len(s.index))
	off := int64(len(fileHeader))
	for _, k := range keys {
		e := s.index[k]
		rec := make([]byte, e.len)
		if _, err := s.f.ReadAt(rec, e.off); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact read: %w", err)
		}
		if _, err := tmp.Write(rec); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact write: %w", err)
		}
		newIndex[k] = entry{off: off, len: e.len, fp: e.fp}
		off += e.len
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, logName)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	s.f.Close()
	s.f = tmp
	s.index = newIndex
	s.size = off
	s.dead = 0
	return nil
}

// Close syncs and closes the log. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

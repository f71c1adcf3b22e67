// Package store is the crash-safe persistent tier under the server's
// content-addressed engine cache: an append-only, checksummed segment-file
// store keyed by ContentKey, with a write-ahead log that journals entry
// installs and version-chain Advance lineage.
//
// On-disk layout (all multi-byte integers little-endian):
//
//	dir/seg-%08d.dat   payload segments, appended in sequence order
//	dir/wal.log        metadata journal, checkpoint-rewritten on open
//
// Every record in every file is framed identically:
//
//	[u32 bodyLen][u32 crc32(IEEE, body)][body]
//
// Segment record bodies hold the payloads:
//
//	'E'  u16 keyLen, key, u16 famLen, family, payload
//
// WAL record bodies journal metadata:
//
//	'I'  u16 keyLen, key, u16 famLen, family      — entry installed
//	'A'  u16 famLen, family, u16 fromLen, from,
//	     u16 toLen, to                            — version chain advanced
//	'C'  (empty)                                  — clean shutdown marker
//
// Crash model: process kill. Completed writes are durable, the in-flight
// write may land as an arbitrary prefix (torn). Recovery scans every
// segment verifying per-record CRCs: a record cut off by end-of-file is a
// torn tail and is truncated away; a full record whose CRC fails is
// corruption, and the scanner quarantines the rest of that file (lengths
// after a corrupt record cannot be trusted) rather than crash — entries
// behind the quarantine line are reported lost, never served wrong. The
// WAL is replayed for family lineage and the clean marker, then rewritten
// as a fresh checkpoint via write → sync → rename. A missing WAL, a stale
// WAL, or a WAL referencing vanished entries degrade to the same safe
// outcome: the segment scan is the source of truth for what is servable,
// and Get re-verifies the record CRC on every read.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"sync"
)

const (
	recEntry   = 'E'
	recInstall = 'I'
	recAdvance = 'A'
	recClean   = 'C'

	recHeader = 8 // u32 bodyLen + u32 crc
	// maxRecordBytes rejects insane lengths during scans before any
	// allocation — a corrupt header cannot make recovery allocate gigabytes.
	maxRecordBytes = 1 << 28

	walName = "wal.log"
	walTmp  = "wal.tmp"
)

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("store: closed")

// Options configures Open.
type Options struct {
	// FS is the file layer; nil means the operating system.
	FS FS
	// BudgetBytes caps total on-disk bytes; once exceeded, whole oldest
	// segments are dropped (the active segment is never dropped). <= 0
	// means unlimited.
	BudgetBytes int64
	// SegmentMaxBytes rotates the active segment once it grows past this
	// size; <= 0 means 4 MiB. Smaller values give compaction finer
	// granularity at the cost of more files.
	SegmentMaxBytes int64
	// Logf, when non-nil, receives recovery and degradation diagnostics.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Entries currently servable from disk.
	Entries int
	// BytesOnDisk across segments and WAL.
	BytesOnDisk int64
	// RecoveredEntries restored by Open's segment scan.
	RecoveredEntries int
	// RecoveredClean reports whether the WAL ended with a clean-shutdown
	// marker — false means the previous process crashed.
	RecoveredClean bool
	// CorruptRecords counts CRC failures and quarantines, at recovery and
	// at read time, since Open.
	CorruptRecords int
	// TornTailBytes truncated away at recovery.
	TornTailBytes int64
	// EvictedEntries dropped by budget compaction since Open.
	EvictedEntries int
}

type entryLoc struct {
	seq    int
	off    int64 // record start (header included)
	recLen int64 // header + body
	family string
}

type segment struct {
	seq  int
	name string // full path
	f    File
	size int64
	// sealed forbids further appends: the file holds quarantined or torn
	// bytes past size, so a new record behind them would be unscannable.
	sealed bool
}

// Store is the persistent engine tier. All methods are safe for
// concurrent use.
type Store struct {
	mu       sync.Mutex
	fs       FS
	dir      string
	opts     Options
	index    map[string]entryLoc
	families map[string]string
	segs     []*segment
	wal      File
	walSize  int64
	stats    Stats
	closed   bool
}

func segName(seq int) string { return fmt.Sprintf("seg-%08d.dat", seq) }

// Open recovers the store in dir, creating it if empty. Recovery never
// fails on corrupt data — only on environmental errors (unreadable
// directory, failed truncate/rename).
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = 4 << 20
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	s := &Store{
		fs:       opts.FS,
		dir:      dir,
		opts:     opts,
		index:    map[string]entryLoc{},
		families: map[string]string{},
	}
	names, err := opts.FS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var seqs []int
	for _, name := range names {
		var seq int
		if _, err := fmt.Sscanf(name, "seg-%08d.dat", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		if err := s.recoverSegment(seq); err != nil {
			return nil, err
		}
	}
	s.recoverWAL()
	s.stats.RecoveredEntries = len(s.index)
	if err := s.checkpointWAL(); err != nil {
		return nil, fmt.Errorf("store: checkpoint wal: %w", err)
	}
	if err := s.ensureActive(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) recoverSegment(seq int) error {
	name := filepath.Join(s.dir, segName(seq))
	f, err := s.fs.OpenFile(name)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", name, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: size %s: %w", name, err)
	}
	clean, quarantined := s.scanFile(f, size, func(off int64, body []byte) {
		key, family, _, ok := parseEntryBody(body)
		if !ok {
			s.stats.CorruptRecords++
			s.opts.Logf("store: %s: malformed entry record at %d, skipped", name, off)
			return
		}
		s.index[key] = entryLoc{seq: seq, off: off, recLen: recHeader + int64(len(body)), family: family}
		if family != "" {
			s.families[family] = key
		}
	})
	if quarantined {
		s.stats.CorruptRecords++
		s.opts.Logf("store: %s: corrupt record at %d, quarantined %d trailing bytes", name, clean, size-clean)
		// The quarantined tail stays on disk (never rewritten, never
		// served); the segment is sealed so ensureActive never appends
		// behind untrusted bytes.
		s.segs = append(s.segs, &segment{seq: seq, name: name, f: f, size: size, sealed: true})
		return nil
	}
	if clean < size {
		s.stats.TornTailBytes += size - clean
		s.opts.Logf("store: %s: truncating torn tail (%d of %d bytes)", name, size-clean, size)
		if err := s.fs.Truncate(name, clean); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate %s: %w", name, err)
		}
		size = clean
	}
	s.segs = append(s.segs, &segment{seq: seq, name: name, f: f, size: size})
	return nil
}

// scanFile walks the record framing from offset 0, calling visit for each
// CRC-clean record. It returns the clean prefix length and whether the
// remainder was quarantined (full record present but CRC bad) as opposed
// to torn (file ends inside a record).
func (s *Store) scanFile(f File, size int64, visit func(off int64, body []byte)) (clean int64, quarantined bool) {
	var off int64
	hdr := make([]byte, recHeader)
	for off+recHeader <= size {
		if _, err := f.ReadAt(hdr, off); err != nil {
			return off, true // unreadable header: treat as quarantine
		}
		bodyLen := int64(binary.LittleEndian.Uint32(hdr))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if bodyLen > maxRecordBytes {
			return off, true
		}
		if off+recHeader+bodyLen > size {
			return off, false // torn tail
		}
		body := make([]byte, bodyLen)
		if _, err := f.ReadAt(body, off+recHeader); err != nil {
			return off, true
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			return off, true
		}
		visit(off, body)
		off += recHeader + bodyLen
	}
	return off, false
}

func (s *Store) recoverWAL() {
	name := filepath.Join(s.dir, walName)
	f, err := s.fs.OpenFile(name)
	if err != nil {
		s.opts.Logf("store: wal unreadable, rebuilding from segments: %v", err)
		return
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return
	}
	lastType := byte(0)
	clean, quarantined := s.scanFile(f, size, func(off int64, body []byte) {
		if len(body) == 0 {
			return
		}
		lastType = body[0]
		switch body[0] {
		case recInstall:
			key, family, _, ok := parseEntryBody(body)
			if !ok {
				return
			}
			if _, have := s.index[key]; !have {
				// WAL references a payload the segments no longer hold
				// (compacted away, or its segment tail was lost). Lineage
				// pointing at it is void.
				return
			}
			if family != "" {
				s.families[family] = key
			}
		case recAdvance:
			family, _, to, ok := parseAdvanceBody(body)
			if !ok {
				return
			}
			if _, have := s.index[to]; have && family != "" {
				s.families[family] = to
			}
		}
	})
	if quarantined {
		s.stats.CorruptRecords++
		s.opts.Logf("store: wal: corrupt record at %d, rest ignored", clean)
	} else if clean < size {
		s.stats.TornTailBytes += size - clean
		s.opts.Logf("store: wal: torn tail (%d of %d bytes)", size-clean, size)
	}
	s.stats.RecoveredClean = !quarantined && clean == size && lastType == recClean
}

// checkpointWAL rewrites the journal to the current state — one install
// record per live entry in segment order, family heads last — via write,
// sync, rename, then reopens it for appending.
func (s *Store) checkpointWAL() error {
	tmp := filepath.Join(s.dir, walTmp)
	_ = s.fs.Remove(tmp)
	f, err := s.fs.OpenFile(tmp)
	if err != nil {
		return err
	}
	var size int64
	keys := make([]string, 0, len(s.index))
	for key := range s.index {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := s.index[keys[i]], s.index[keys[j]]
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.off < b.off
	})
	for _, key := range keys {
		n, err := writeRecord(f, entryBody(recInstall, key, s.index[key].family, nil))
		if err != nil {
			f.Close()
			return err
		}
		size += n
	}
	fams := make([]string, 0, len(s.families))
	for family := range s.families {
		fams = append(fams, family)
	}
	sort.Strings(fams)
	for _, family := range fams {
		n, err := writeRecord(f, advanceBody(family, "", s.families[family]))
		if err != nil {
			f.Close()
			return err
		}
		size += n
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, walName)); err != nil {
		return err
	}
	wal, err := s.fs.OpenFile(filepath.Join(s.dir, walName))
	if err != nil {
		return err
	}
	s.wal = wal
	s.walSize = size
	return nil
}

func (s *Store) ensureActive() error {
	if n := len(s.segs); n > 0 {
		if last := s.segs[n-1]; !last.sealed && last.size < s.opts.SegmentMaxBytes && last.f != nil {
			return nil
		}
	}
	seq := 1
	if n := len(s.segs); n > 0 {
		seq = s.segs[n-1].seq + 1
	}
	name := filepath.Join(s.dir, segName(seq))
	f, err := s.fs.OpenFile(name)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", name, err)
	}
	s.segs = append(s.segs, &segment{seq: seq, name: name, f: f})
	return nil
}

// Put stores payload under key, binding it to the version-chain family
// (empty for none), and journals the install. The payload is durable when
// Put returns nil. Re-putting an existing key only refreshes its family
// binding.
func (s *Store) Put(key, family string, payload []byte) error {
	if len(key) > 0xffff || len(family) > 0xffff {
		return fmt.Errorf("store: key/family too long")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, have := s.index[key]; have {
		if family != "" {
			s.families[family] = key
		}
		return s.journal(entryBody(recInstall, key, family, nil))
	}
	if err := s.ensureActive(); err != nil {
		return err
	}
	seg := s.segs[len(s.segs)-1]
	body := entryBody(recEntry, key, family, payload)
	n, err := writeRecord(seg.f, body)
	if err != nil {
		// The segment tail may now hold a torn record; seal the segment so
		// no further append lands behind it (recovery truncates the tear).
		seg.size += n
		s.sealActive()
		return fmt.Errorf("store: append %s: %w", seg.name, err)
	}
	if err := seg.f.Sync(); err != nil {
		seg.size += n
		s.sealActive()
		return fmt.Errorf("store: sync %s: %w", seg.name, err)
	}
	loc := entryLoc{seq: seg.seq, off: seg.size, recLen: n, family: family}
	seg.size += n
	s.index[key] = loc
	if family != "" {
		s.families[family] = key
	}
	if err := s.journal(entryBody(recInstall, key, family, nil)); err != nil {
		// Payload is durable and indexed; a lost journal record only costs
		// lineage freshness after a crash. Degrade, don't fail the put.
		s.opts.Logf("store: wal append failed (entry %s still durable): %v", key, err)
	}
	if seg.size >= s.opts.SegmentMaxBytes {
		if err := s.ensureActive(); err != nil {
			s.opts.Logf("store: segment rotation failed: %v", err)
		}
	}
	s.compact()
	return nil
}

// sealActive forces the next Put onto a fresh segment; the file stays
// open for reads of the records before the tear.
func (s *Store) sealActive() {
	if n := len(s.segs); n > 0 {
		s.segs[n-1].sealed = true
	}
}

// Advance journals version-chain lineage: family's head moved from one
// key to another. The destination should already be stored (Put first);
// lineage to an absent key is journaled but not applied.
func (s *Store) Advance(family, from, to string) error {
	if len(family) > 0xffff || len(from) > 0xffff || len(to) > 0xffff {
		return fmt.Errorf("store: key/family too long")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, have := s.index[to]; have && family != "" {
		s.families[family] = to
	}
	return s.journal(advanceBody(family, from, to))
}

func (s *Store) journal(body []byte) error {
	if s.wal == nil {
		return fmt.Errorf("store: wal closed")
	}
	n, err := writeRecord(s.wal, body)
	s.walSize += n
	if err != nil {
		return err
	}
	return s.wal.Sync()
}

// Get returns the payload stored under key, re-verifying the record
// checksum. A miss is (nil, false, nil); a record that fails verification
// is quarantined (dropped from the index, counted) and reported as
// (nil, false, err) so callers can log and fall back to a cold build.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	loc, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	var seg *segment
	for _, sg := range s.segs {
		if sg.seq == loc.seq {
			seg = sg
			break
		}
	}
	if seg == nil || seg.f == nil {
		delete(s.index, key)
		return nil, false, nil
	}
	rec := make([]byte, loc.recLen)
	if _, err := readFullAt(seg.f, rec, loc.off); err != nil {
		s.quarantine(key, loc)
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	bodyLen := int64(binary.LittleEndian.Uint32(rec))
	if bodyLen != loc.recLen-recHeader {
		s.quarantine(key, loc)
		return nil, false, fmt.Errorf("store: read %s: record length changed on disk", key)
	}
	body := rec[recHeader:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rec[4:]) {
		s.quarantine(key, loc)
		return nil, false, fmt.Errorf("store: read %s: checksum mismatch", key)
	}
	k, _, payload, ok := parseEntryBody(body)
	if !ok || k != key {
		s.quarantine(key, loc)
		return nil, false, fmt.Errorf("store: read %s: record key mismatch", key)
	}
	return payload, true, nil
}

func (s *Store) quarantine(key string, loc entryLoc) {
	delete(s.index, key)
	if loc.family != "" && s.families[loc.family] == key {
		delete(s.families, loc.family)
	}
	s.stats.CorruptRecords++
	s.opts.Logf("store: quarantined entry %s (segment %d)", key, loc.seq)
}

// readFullAt reads exactly len(p) bytes, looping over partial reads the
// way short-read fault injection produces them.
func readFullAt(f File, p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		m, err := f.ReadAt(p[n:], off+int64(n))
		n += m
		if n >= len(p) {
			return n, nil
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return n, err
		}
		if m == 0 {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return n, err
		}
	}
	return n, nil
}

// FamilyHead returns the newest stored key in a version-chain family, so
// a cache miss can advance from a disk-resident ancestor.
func (s *Store) FamilyHead(family string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.families[family]
	return key, ok
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.BytesOnDisk = s.walSize
	for _, seg := range s.segs {
		st.BytesOnDisk += seg.size
	}
	return st
}

// compact drops whole oldest segments while over budget. The active
// segment survives even when a single entry exceeds the budget.
func (s *Store) compact() {
	if s.opts.BudgetBytes <= 0 {
		return
	}
	total := s.walSize
	for _, seg := range s.segs {
		total += seg.size
	}
	dropped := false
	for total > s.opts.BudgetBytes && len(s.segs) > 1 {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		total -= victim.size
		for key, loc := range s.index {
			if loc.seq == victim.seq {
				delete(s.index, key)
				if loc.family != "" && s.families[loc.family] == key {
					delete(s.families, loc.family)
				}
				s.stats.EvictedEntries++
			}
		}
		if victim.f != nil {
			victim.f.Close()
		}
		if err := s.fs.Remove(victim.name); err != nil {
			s.opts.Logf("store: compaction remove %s: %v", victim.name, err)
		}
		dropped = true
	}
	if dropped {
		if err := s.checkpointWAL(); err != nil {
			s.opts.Logf("store: post-compaction checkpoint failed: %v", err)
		}
	}
}

// Close flushes the journal, writes the clean-shutdown marker, and closes
// every file. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	if s.wal != nil {
		if err := s.journal([]byte{recClean}); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		s.wal = nil
	}
	for _, seg := range s.segs {
		if seg.f != nil {
			if err := seg.f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			seg.f = nil
		}
	}
	return firstErr
}

// --- record serialization ---

func writeRecord(f File, body []byte) (int64, error) {
	rec := make([]byte, recHeader+len(body))
	binary.LittleEndian.PutUint32(rec, uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(body))
	copy(rec[recHeader:], body)
	n, err := f.Write(rec)
	return int64(n), err
}

// entryBody builds an 'E' (segment) or 'I' (WAL) body; payload is nil for
// installs.
func entryBody(typ byte, key, family string, payload []byte) []byte {
	b := make([]byte, 0, 1+2+len(key)+2+len(family)+len(payload))
	b = append(b, typ)
	b = appendStr16(b, key)
	b = appendStr16(b, family)
	return append(b, payload...)
}

func parseEntryBody(body []byte) (key, family string, payload []byte, ok bool) {
	if len(body) < 1 || (body[0] != recEntry && body[0] != recInstall) {
		return "", "", nil, false
	}
	rest := body[1:]
	key, rest, ok = takeStr16(rest)
	if !ok {
		return "", "", nil, false
	}
	family, rest, ok = takeStr16(rest)
	if !ok {
		return "", "", nil, false
	}
	return key, family, rest, true
}

func advanceBody(family, from, to string) []byte {
	b := make([]byte, 0, 1+6+len(family)+len(from)+len(to))
	b = append(b, recAdvance)
	b = appendStr16(b, family)
	b = appendStr16(b, from)
	return appendStr16(b, to)
}

func parseAdvanceBody(body []byte) (family, from, to string, ok bool) {
	if len(body) < 1 || body[0] != recAdvance {
		return "", "", "", false
	}
	rest := body[1:]
	family, rest, ok = takeStr16(rest)
	if !ok {
		return "", "", "", false
	}
	from, rest, ok = takeStr16(rest)
	if !ok {
		return "", "", "", false
	}
	to, rest, ok = takeStr16(rest)
	if !ok || len(rest) != 0 {
		return "", "", "", false
	}
	return family, from, to, true
}

func appendStr16(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func takeStr16(b []byte) (string, []byte, bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b)-2 < n {
		return "", nil, false
	}
	return string(b[2 : 2+n]), b[2+n:], true
}
